//! Per-problem evaluation cache for Eq. 6 times and Eq. 1 costs.

use std::sync::OnceLock;

use simcloud::cost::LENGTH_NORM_MI;
use simcloud::ids::VmId;

use crate::objective::Objective;
use crate::problem::SchedulingProblem;

/// Largest dense ETC (expected-time-to-compute) matrix
/// [`EvalCache::expect_evaluations`] materializes: 2¹⁷ entries, 1 MiB of `f64`,
/// a quarter of one core's L2. Past that, GA and PSO run slower with the
/// matrix than without: median of 7 alternating runs each, standard
/// params, fill included, heterogeneous fleets on a 2-vCPU Xeon guest
/// (4 MiB L2 per core), dense/recompute time was 0.90 at 10⁵ entries
/// (100 VMs × 1 000 cloudlets), 0.94–1.07 at 1.3 × 10⁵, 1.03–1.14 at
/// 2–2.6 × 10⁵ and 1.23–1.32 at 1.1 × 10⁶ (2 000 VMs × 555 cloudlets).
/// Recomputing `d(c, v)` from the per-VM and per-cloudlet factors gives
/// the same bits, so the cap only moves time.
const DENSE_ETC_MAX_ENTRIES: usize = 1 << 17;

/// Largest `batch × vms` product for which [`EvalCache::eta_pow_block`]
/// materializes the η^β block — 2²² entries, 32 MB of `f64` per colony.
/// Colonies run in parallel, so this scratch is per-thread; above the cap
/// ACO falls back to computing η^β per candidate (identical values).
const ETA_POW_MAX_ENTRIES: usize = 1 << 22;

/// The one table rule (DESIGN.md "Evaluation kernel"): a `rows × cols`
/// table pays for its fill only when the reads expected of it exceed its
/// entries and it fits under its `cap`. Returns the entry count then.
fn worth_tabulating(rows: usize, cols: usize, reads: usize, cap: usize) -> Option<usize> {
    rows.checked_mul(cols)
        .filter(|&entries| 0 < entries && entries < reads && entries <= cap)
}

/// Immutable evaluation cache, built once per [`SchedulingProblem`].
///
/// Holds the raw factors of Eq. 6 (`length`, `pes`, `file_size` per
/// cloudlet; `mips`, `pes`, `bw` per VM) in flat arrays and the per-VM
/// Eq. 1 rate factors: O(C + V) work to build. The dense ETC matrix is
/// built later, and only when a caller's declared reads pay for it
/// ([`EvalCache::expect_evaluations`]). All evaluation replicates the
/// floating-point expression order of
/// [`SchedulingProblem::expected_exec_ms`] and
/// [`crate::objective::score_assignment`] exactly, so a cached score equals
/// the uncached one bit for bit, with or without the matrix.
pub struct EvalCache {
    cl_len: Vec<f64>,
    cl_pes: Vec<u32>,
    cl_file: Vec<f64>,
    vm_mips: Vec<f64>,
    vm_pes: Vec<u32>,
    vm_bw: Vec<f64>,
    /// Eq. 1 `(Size + M + Bw)` factor of the datacenter hosting each VM.
    vm_resource_rate: Vec<f64>,
    /// `per_processing` price of the datacenter hosting each VM.
    vm_per_processing: Vec<f64>,
    /// Lazily built row-major `[c * vm_count + v]` Eq. 6 matrix (see
    /// [`EvalCache::expect_evaluations`]).
    etc: OnceLock<Vec<f64>>,
    /// Lazily built η-proportional candidate ring (see [`CandidateRing`]);
    /// shared by every colony scheduling against this cache.
    ring: OnceLock<CandidateRing>,
}

/// η-proportional stratified candidate ring.
///
/// A naive per-cloudlet "top-k VMs by η" collapses on fleets with one
/// shared speed ranking (homogeneous or MIPS-sorted): every cloudlet
/// would list the *same* k fastest VMs, the batch tabu rule exhausts
/// them after k slots, and all load concentrates on a handful of VMs.
/// Instead the ring tiles `vm_count` cells with VMs *proportionally to
/// their canonical desirability* (η̂ against a mean reference cloudlet):
/// fast VMs own many cells, slow VMs few (possibly zero). Cloudlet `c`'s
/// candidate list is the first k distinct VMs read clockwise from cell
/// `(c * k) % cells`, so consecutive batch slots consume disjoint cell
/// windows (tabu-friendly) while faster VMs still appear in ∝η̂-many
/// lists. For a homogeneous fleet every VM owns exactly one cell and the
/// lists degenerate to round-robin tiles.
struct CandidateRing {
    /// `cells[i]` = VM index owning cell `i`; `len == vm_count`.
    cells: Vec<u32>,
    /// Number of distinct VMs owning at least one cell (effective upper
    /// bound on candidate-list width).
    distinct: usize,
}

impl CandidateRing {
    fn build(cache: &EvalCache) -> Self {
        let v = cache.vm_count();
        if v == 0 {
            return CandidateRing {
                cells: Vec::new(),
                distinct: 0,
            };
        }
        let c_count = cache.cloudlet_count().max(1) as f64;
        // Canonical reference cloudlet: mean length/file size, mean PEs.
        let mean_len = cache.cl_len.iter().sum::<f64>() / c_count;
        let mean_file = cache.cl_file.iter().sum::<f64>() / c_count;
        let mean_pes = (cache.cl_pes.iter().map(|&p| u64::from(p)).sum::<u64>() as f64 / c_count)
            .round()
            .max(1.0);
        let score = |vm: usize| -> f64 {
            let pes = f64::from(cache.vm_pes[vm]).min(mean_pes);
            let compute_ms = mean_len / (pes * cache.vm_mips[vm]) * 1_000.0;
            let staging_ms = mean_file * 8.0 / cache.vm_bw[vm] * 1_000.0;
            let eta = 1.0 / (compute_ms + staging_ms);
            if eta.is_finite() && eta > 0.0 {
                eta
            } else {
                0.0
            }
        };
        let mut order: Vec<u32> = (0..v as u32).collect();
        let scores: Vec<f64> = (0..v).map(score).collect();
        order.sort_by(|&a, &b| {
            scores[b as usize]
                .partial_cmp(&scores[a as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let total: f64 = order.iter().map(|&vm| scores[vm as usize]).sum();
        let mut cells = Vec::with_capacity(v);
        if !(total.is_finite() && total > 0.0) {
            // Degenerate desirability (all zero/non-finite): uniform ring.
            cells.extend(0..v as u32);
        } else {
            // CDF-stratified tiling: cell i targets mass (i + ½)·total/v;
            // two monotone pointers make this O(v) overall.
            let mut ptr = 0usize;
            let mut prefix = scores[order[0] as usize];
            for i in 0..v {
                let target = (i as f64 + 0.5) * total / v as f64;
                while prefix <= target && ptr + 1 < v {
                    ptr += 1;
                    prefix += scores[order[ptr] as usize];
                }
                cells.push(order[ptr]);
            }
        }
        let mut seen = vec![false; v];
        let mut distinct = 0usize;
        for &vm in &cells {
            if !seen[vm as usize] {
                seen[vm as usize] = true;
                distinct += 1;
            }
        }
        CandidateRing { cells, distinct }
    }
}

/// Dense per-batch candidate block: for each slot (cloudlet) of a batch,
/// the `k` candidate VM indices and their exact `η(c, vm)^β` weights,
/// slot-major (`[slot * k + rank]`). Built by
/// [`EvalCache::candidate_block`] once per colony; the ACO fast path
/// reads it instead of scanning all VMs.
pub struct CandidateBlock {
    k: usize,
    /// Number of slots covered.
    slots: usize,
    /// Candidate VM indices, `[slot * k + rank]`.
    idx: Vec<u32>,
    /// `η(c, idx)^β` matching `idx` entry-wise (non-finite clipped to 0).
    eta_pow: Vec<f64>,
}

impl CandidateBlock {
    /// Effective candidate-list width (≤ requested k; shrinks when the
    /// ring holds fewer distinct VMs).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of slots covered.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// Candidate VM indices of slot `s`.
    #[inline]
    pub fn row(&self, s: usize) -> &[u32] {
        &self.idx[s * self.k..(s + 1) * self.k]
    }

    /// `η^β` weights of slot `s`, parallel to [`Self::row`].
    #[inline]
    pub fn eta_row(&self, s: usize) -> &[f64] {
        &self.eta_pow[s * self.k..(s + 1) * self.k]
    }
}

impl EvalCache {
    /// Builds the cache: the per-VM and per-cloudlet factors only.
    pub fn new(problem: &SchedulingProblem) -> Self {
        EvalCache {
            cl_len: problem.cloudlets.iter().map(|cl| cl.length_mi).collect(),
            cl_pes: problem.cloudlets.iter().map(|cl| cl.pes).collect(),
            cl_file: problem.cloudlets.iter().map(|cl| cl.file_size_mb).collect(),
            vm_mips: problem.vms.iter().map(|vm| vm.mips).collect(),
            vm_pes: problem.vms.iter().map(|vm| vm.pes).collect(),
            vm_bw: problem.vms.iter().map(|vm| vm.bw_mbps).collect(),
            vm_resource_rate: (0..problem.vm_count())
                .map(|v| simcloud::cost::resource_rate(problem.cost_of_vm(v), &problem.vms[v]))
                .collect(),
            vm_per_processing: (0..problem.vm_count())
                .map(|v| problem.cost_of_vm(v).per_processing)
                .collect(),
            etc: OnceLock::new(),
            ring: OnceLock::new(),
        }
    }

    /// Declares that about `units` whole-plan evaluations are coming, in
    /// the evaluation-unit ledger every anytime family keeps (one unit
    /// scores one plan: `cloudlet_count` Eq. 6 reads), and materializes
    /// the dense ETC matrix if the table rule says those reads pay for it
    /// (`DENSE_ETC_MAX_ENTRIES` is its cap). Changes no value
    /// [`Self::exec_ms`] returns.
    pub fn expect_evaluations(&self, units: u64) {
        let (rows, cols) = (self.cloudlet_count(), self.vm_count());
        let reads = (units as usize).saturating_mul(rows);
        if worth_tabulating(rows, cols, reads, DENSE_ETC_MAX_ENTRIES).is_some() {
            self.etc.get_or_init(|| {
                let mut etc = Vec::with_capacity(rows * cols);
                for c in 0..rows {
                    for v in 0..cols {
                        etc.push(self.compute_exec_ms(c, v));
                    }
                }
                etc
            });
        }
    }

    /// Warm-wave retarget: swaps the *cloudlet* side of the cache for
    /// `problem`'s cloudlets while keeping every per-VM artifact — the
    /// Eq. 1 rate factors and the lazily-built η-proportional candidate
    /// ring. The streaming broker calls this once per wave against an
    /// unchanged fleet, turning the O(#VMs) per-wave rebuild into
    /// O(#wave-cloudlets). Evaluation stays bit-identical to a fresh
    /// cache over the same problem (`exec_ms`/`score`/`cost` read only
    /// per-VM factors plus the swapped arrays); the kept ring was seeded
    /// from the cloudlet mix of the wave that built it, which only biases
    /// *candidate-list quality*, never scores — accepted staleness under
    /// the warm-state contract (see DESIGN.md "Streaming broker").
    ///
    /// The ETC matrix holds the previous wave's times, so it is dropped;
    /// the next [`Self::expect_evaluations`] decides afresh.
    ///
    /// # Panics
    /// If `problem`'s fleet size differs from the cached one — the fleet
    /// must be unchanged for the per-VM half to remain valid.
    pub fn retarget_cloudlets(&mut self, problem: &SchedulingProblem) {
        assert_eq!(
            problem.vm_count(),
            self.vm_count(),
            "retarget requires an unchanged fleet"
        );
        self.cl_len = problem.cloudlets.iter().map(|cl| cl.length_mi).collect();
        self.cl_pes = problem.cloudlets.iter().map(|cl| cl.pes).collect();
        self.cl_file = problem.cloudlets.iter().map(|cl| cl.file_size_mb).collect();
        self.etc.take();
    }

    /// Number of VMs covered.
    #[inline]
    pub fn vm_count(&self) -> usize {
        self.vm_mips.len()
    }

    /// Number of cloudlets covered.
    #[inline]
    pub fn cloudlet_count(&self) -> usize {
        self.cl_len.len()
    }

    /// True when the dense ETC matrix has been materialized so far.
    pub fn has_dense_etc(&self) -> bool {
        self.etc.get().is_some()
    }

    /// Length of cloudlet `c` in MI (Eq. 1's `TCL_j` factor).
    #[inline]
    pub fn cloudlet_len_mi(&self, c: usize) -> f64 {
        self.cl_len[c]
    }

    /// Eq. 6 from the cached factors — the identical floating-point
    /// expression [`SchedulingProblem::expected_exec_ms`] evaluates
    /// (compute over the effective PEs plus input staging over the VM's
    /// bandwidth, both in ms).
    #[inline]
    fn compute_exec_ms(&self, c: usize, v: usize) -> f64 {
        let compute_ms = self.cl_len[c]
            / (f64::from(self.cl_pes[c].min(self.vm_pes[v])) * self.vm_mips[v])
            * 1_000.0;
        let staging_ms = self.cl_file[c] * 8.0 / self.vm_bw[v] * 1_000.0;
        compute_ms + staging_ms
    }

    /// Eq. 6 expected execution time of cloudlet `c` on VM `v`, in ms.
    /// A dense-matrix lookup when materialized, otherwise recomputed from
    /// the cached factors — bit-identical either way.
    #[inline]
    pub fn exec_ms(&self, c: usize, v: usize) -> f64 {
        match self.etc.get() {
            Some(etc) => etc[c * self.vm_count() + v],
            None => self.compute_exec_ms(c, v),
        }
    }

    /// Eq. 6's heuristic desirability `η = 1 / d`.
    #[inline]
    pub fn heuristic(&self, c: usize, v: usize) -> f64 {
        1.0 / self.exec_ms(c, v)
    }

    /// Materializes `η(c, j)^β` for every (cloudlet, VM) pair of a batch —
    /// the Eq. 5 heuristic factor ACO's tour construction reads per
    /// candidate. Row-major: entry `(c - slots.start) * vm_count + j`.
    /// Each entry is exactly `self.heuristic(c, j).powf(beta)`, so a
    /// precomputed block is bit-identical to the inline expression.
    ///
    /// Returns `None` unless the table rule says the `expected_lookups`
    /// pay for the block (`ETA_POW_MAX_ENTRIES` is its cap); callers
    /// then fall back to the inline per-candidate expression.
    pub fn eta_pow_block(
        &self,
        slots: std::ops::Range<usize>,
        beta: f64,
        expected_lookups: usize,
    ) -> Option<Vec<f64>> {
        let v = self.vm_count();
        let entries = worth_tabulating(slots.len(), v, expected_lookups, ETA_POW_MAX_ENTRIES)?;
        let mut block = Vec::with_capacity(entries);
        for c in slots {
            for j in 0..v {
                block.push(self.heuristic(c, j).powf(beta));
            }
        }
        Some(block)
    }

    /// Builds the dense candidate block for a batch of slots: per slot the
    /// `k` distinct candidate VMs read from the η-proportional ring
    /// starting at cell `(c * k) % vm_count`, with exact `η(c, vm)^β`
    /// weights (`heuristic(c, vm).powf(beta)`, non-finite clipped to 0).
    ///
    /// The effective width may shrink below `k` when the ring holds fewer
    /// distinct VMs (heavy η skew can leave the slowest VMs without a
    /// cell); read it back from [`CandidateBlock::k`]. The ring itself is
    /// built once per cache and shared across colonies/threads.
    pub fn candidate_block(
        &self,
        slots: std::ops::Range<usize>,
        k: usize,
        beta: f64,
    ) -> CandidateBlock {
        let v = self.vm_count();
        let ring = self.ring.get_or_init(|| CandidateRing::build(self));
        let k = k.min(ring.distinct).max(usize::from(v > 0));
        let b = slots.len();
        let mut idx = Vec::with_capacity(b * k);
        let mut eta_pow = Vec::with_capacity(b * k);
        // Generation-stamped dedup: one u32 array reused across slots.
        let mut stamp = vec![0u32; v];
        let mut generation = 0u32;
        for c in slots {
            generation = generation.wrapping_add(1);
            let mut cell = (c * k) % v.max(1);
            let mut taken = 0usize;
            let mut scanned = 0usize;
            while taken < k && scanned < v {
                let vm = ring.cells[cell];
                cell += 1;
                if cell == v {
                    cell = 0;
                }
                scanned += 1;
                if stamp[vm as usize] == generation {
                    continue;
                }
                stamp[vm as usize] = generation;
                let w = self.heuristic(c, vm as usize).powf(beta);
                let w = if w.is_finite() { w } else { 0.0 };
                idx.push(vm);
                eta_pow.push(w);
                taken += 1;
            }
            debug_assert_eq!(taken, k, "ring guarantees k ≤ distinct VMs");
        }
        CandidateBlock {
            k,
            slots: b,
            idx,
            eta_pow,
        }
    }

    /// Eq. 1 processing cost of cloudlet `c` on VM `v`, using the Eq. 6
    /// estimate as the CPU time — the exact term
    /// [`crate::objective::score_assignment`] sums for [`Objective::Cost`].
    #[inline]
    pub fn cost(&self, c: usize, v: usize) -> f64 {
        let cpu_seconds = self.exec_ms(c, v) / 1_000.0;
        let resource_term = self.vm_resource_rate[v] * (self.cl_len[c] / LENGTH_NORM_MI);
        let cpu_term = self.vm_per_processing[v] * cpu_seconds;
        resource_term + cpu_term
    }

    /// Per-VM estimated busy time of a plan (the quantity load-aware
    /// schedulers balance), accumulated in cloudlet order like
    /// [`crate::assignment::Assignment::estimated_load_ms`].
    pub fn load_vector(&self, plan: &[VmId]) -> Vec<f64> {
        let mut load = vec![0.0; self.vm_count()];
        for (c, vm) in plan.iter().enumerate() {
            load[vm.index()] += self.exec_ms(c, vm.index());
        }
        load
    }

    /// Scores a cloudlet→VM plan under `objective` — lower is better.
    /// Bit-identical to [`crate::objective::score_assignment`] on the
    /// problem the cache was built from.
    pub fn score(&self, plan: &[VmId], objective: Objective) -> f64 {
        self.score_iter(plan.iter().map(|vm| vm.index()), objective)
    }

    /// Scores a raw `u32` gene vector (GA chromosomes, ACO tours) without
    /// converting it into an [`crate::assignment::Assignment`] first.
    pub fn score_genes(&self, genes: &[u32], objective: Objective) -> f64 {
        self.score_iter(genes.iter().map(|g| *g as usize), objective)
    }

    /// Shared scoring core; `vms[i]` is the VM index of cloudlet `i`. The
    /// iteration order replicates `score_assignment` exactly so results
    /// match bit for bit.
    fn score_iter<I: Iterator<Item = usize>>(&self, vms: I, objective: Objective) -> f64 {
        match objective {
            Objective::Makespan => {
                let mut load = vec![0.0; self.vm_count()];
                for (c, v) in vms.enumerate() {
                    load[v] += self.exec_ms(c, v);
                }
                load.into_iter().fold(0.0, f64::max)
            }
            Objective::Cost => {
                let mut total = 0.0;
                for (c, v) in vms.enumerate() {
                    total += self.cost(c, v);
                }
                total
            }
            Objective::Balance => {
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                let mut sum = 0.0;
                let mut n = 0usize;
                for (c, v) in vms.enumerate() {
                    let d = self.exec_ms(c, v);
                    min = min.min(d);
                    max = max.max(d);
                    sum += d;
                    n += 1;
                }
                if n == 0 || sum == 0.0 {
                    0.0
                } else {
                    (max - min) / (sum / n as f64)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::Assignment;
    use crate::objective::score_assignment;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::ids::DatacenterId;
    use simcloud::vm::VmSpec;

    fn hetero_problem() -> SchedulingProblem {
        let vms: Vec<VmSpec> = (0..7)
            .map(|i| {
                VmSpec::new(
                    500.0 + 700.0 * (i % 4) as f64,
                    5_000.0,
                    512.0,
                    300.0 + 100.0 * (i % 3) as f64,
                    1 + (i % 2) as u32,
                )
            })
            .collect();
        let cloudlets: Vec<CloudletSpec> = (0..23)
            .map(|i| {
                CloudletSpec::new(
                    750.0 + 450.0 * (i % 9) as f64,
                    if i % 3 == 0 {
                        0.0
                    } else {
                        120.0 + 60.0 * (i % 4) as f64
                    },
                    100.0,
                    1 + (i % 3) as u32,
                )
            })
            .collect();
        let dcs = vec![
            crate::problem::DatacenterView {
                id: DatacenterId(0),
                cost: CostModel::new(0.05, 0.004, 0.05, 3.0),
            },
            crate::problem::DatacenterView {
                id: DatacenterId(1),
                cost: CostModel::new(0.01, 0.001, 0.01, 3.0),
            },
        ];
        let placement = (0..7).map(|i| DatacenterId(u32::from(i >= 4))).collect();
        SchedulingProblem::new(vms, cloudlets, dcs, placement).unwrap()
    }

    fn some_plan(problem: &SchedulingProblem) -> Vec<VmId> {
        (0..problem.cloudlet_count())
            .map(|c| VmId(((c * 5 + 3) % problem.vm_count()) as u32))
            .collect()
    }

    /// Runs `check` on one cache before and after `expect_evaluations`
    /// materializes its ETC matrix.
    fn before_and_after_fill(p: &SchedulingProblem, mut check: impl FnMut(&EvalCache)) {
        let cache = EvalCache::new(p);
        check(&cache);
        cache.expect_evaluations(u64::MAX);
        assert!(cache.has_dense_etc());
        check(&cache);
    }

    #[test]
    fn exec_ms_is_bit_identical_to_problem() {
        let p = hetero_problem();
        before_and_after_fill(&p, |cache| {
            for c in 0..p.cloudlet_count() {
                for v in 0..p.vm_count() {
                    assert_eq!(
                        cache.exec_ms(c, v).to_bits(),
                        p.expected_exec_ms(c, v).to_bits(),
                        "d({c},{v}) diverged (dense={})",
                        cache.has_dense_etc()
                    );
                    assert_eq!(cache.heuristic(c, v).to_bits(), p.heuristic(c, v).to_bits());
                }
            }
        });
    }

    #[test]
    fn the_matrix_is_built_only_when_declared_reads_pay_for_it() {
        // One evaluation reads one entry per row, so V evaluations read
        // exactly as many times as the matrix holds entries.
        let p = hetero_problem();
        let vms = p.vm_count() as u64;
        let cache = EvalCache::new(&p);
        assert!(!cache.has_dense_etc(), "construction alone never fills");
        cache.expect_evaluations(vms);
        assert!(!cache.has_dense_etc(), "reads equal to entries do not pay");
        cache.expect_evaluations(vms + 1);
        assert!(cache.has_dense_etc());
    }

    #[test]
    fn a_problem_above_the_cap_never_materializes() {
        let cloudlets = DENSE_ETC_MAX_ENTRIES / 4 + 1;
        let cache = EvalCache::new(&uniform_problem(4, cloudlets));
        cache.expect_evaluations(u64::MAX);
        assert!(!cache.has_dense_etc());
        let at_cap = EvalCache::new(&uniform_problem(4, cloudlets - 1));
        at_cap.expect_evaluations(u64::MAX);
        assert!(at_cap.has_dense_etc());
    }

    #[test]
    fn scores_are_bit_identical_to_score_assignment() {
        let p = hetero_problem();
        let plan = some_plan(&p);
        let assignment = Assignment::new(plan.clone());
        before_and_after_fill(&p, |cache| {
            for objective in Objective::ALL {
                assert_eq!(
                    cache.score(&plan, objective).to_bits(),
                    score_assignment(&p, &assignment, objective).to_bits(),
                    "{objective:?} diverged (dense={})",
                    cache.has_dense_etc()
                );
            }
        });
    }

    #[test]
    fn score_genes_matches_score() {
        let p = hetero_problem();
        let cache = EvalCache::new(&p);
        let plan = some_plan(&p);
        let genes: Vec<u32> = plan.iter().map(|vm| vm.0).collect();
        for objective in Objective::ALL {
            assert_eq!(
                cache.score_genes(&genes, objective).to_bits(),
                cache.score(&plan, objective).to_bits()
            );
        }
    }

    #[test]
    fn load_vector_matches_assignment() {
        let p = hetero_problem();
        let cache = EvalCache::new(&p);
        let plan = some_plan(&p);
        let expect = Assignment::new(plan.clone()).estimated_load_ms(&p);
        let got = cache.load_vector(&plan);
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert_eq!(g.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn cost_uses_per_datacenter_prices() {
        let p = hetero_problem();
        let cache = EvalCache::new(&p);
        // VM 0 sits in the expensive DC, VM 6 in the cheap one.
        assert!(cache.cost(0, 0) > cache.cost(0, 6));
    }

    #[test]
    fn eta_pow_block_matches_inline_expression() {
        let p = hetero_problem();
        let cache = EvalCache::new(&p);
        let beta = 0.99;
        let block = cache
            .eta_pow_block(3..9, beta, usize::MAX)
            .expect("small block materializes");
        assert_eq!(block.len(), 6 * p.vm_count());
        for (i, c) in (3..9).enumerate() {
            for v in 0..p.vm_count() {
                assert_eq!(
                    block[i * p.vm_count() + v].to_bits(),
                    cache.heuristic(c, v).powf(beta).to_bits()
                );
            }
        }
    }

    #[test]
    fn eta_pow_block_declines_unprofitable_work() {
        let p = hetero_problem();
        let cache = EvalCache::new(&p);
        // Fewer expected lookups than block entries: not worth it.
        assert!(cache.eta_pow_block(0..4, 0.99, 3).is_none());
        // Empty batch never materializes.
        assert!(cache.eta_pow_block(5..5, 0.99, usize::MAX).is_none());
    }

    fn uniform_problem(vm_count: usize, cloudlet_count: usize) -> SchedulingProblem {
        let vms: Vec<VmSpec> = (0..vm_count)
            .map(|_| VmSpec::new(1_000.0, 5_000.0, 512.0, 500.0, 1))
            .collect();
        let cloudlets: Vec<CloudletSpec> = (0..cloudlet_count)
            .map(|_| CloudletSpec::new(250.0, 100.0, 20.0, 1))
            .collect();
        SchedulingProblem::single_datacenter(vms, cloudlets, CostModel::default())
    }

    #[test]
    fn candidate_block_rows_are_distinct_and_in_range() {
        let p = hetero_problem();
        let cache = EvalCache::new(&p);
        for k in [1, 3, 5, 7, 20] {
            let block = cache.candidate_block(0..p.cloudlet_count(), k, 0.99);
            assert!(block.k() >= 1 && block.k() <= k.min(p.vm_count()));
            assert_eq!(block.slot_count(), p.cloudlet_count());
            for s in 0..block.slot_count() {
                let row = block.row(s);
                assert_eq!(row.len(), block.k());
                let mut seen = vec![false; p.vm_count()];
                for &vm in row {
                    assert!((vm as usize) < p.vm_count());
                    assert!(!seen[vm as usize], "duplicate VM in candidate row");
                    seen[vm as usize] = true;
                }
            }
        }
    }

    #[test]
    fn candidate_block_weights_match_inline_eta_pow() {
        let p = hetero_problem();
        let cache = EvalCache::new(&p);
        let beta = 0.99;
        let block = cache.candidate_block(0..p.cloudlet_count(), 4, beta);
        for s in 0..block.slot_count() {
            for (&vm, &w) in block.row(s).iter().zip(block.eta_row(s)) {
                let expect = cache.heuristic(s, vm as usize).powf(beta);
                let expect = if expect.is_finite() { expect } else { 0.0 };
                assert_eq!(w.to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn homogeneous_ring_tiles_round_robin() {
        // Identical VMs: every VM owns exactly one cell, so consecutive
        // slots read disjoint k-windows and a sweep of ceil(v/k) slots
        // covers the whole fleet.
        let p = uniform_problem(10, 40);
        let cache = EvalCache::new(&p);
        let k = 3;
        let block = cache.candidate_block(0..40, k, 0.99);
        assert_eq!(block.k(), k);
        let mut covered = [false; 10];
        for s in 0..4 {
            for &vm in block.row(s) {
                covered[vm as usize] = true;
            }
        }
        assert!(covered.iter().filter(|&&c| c).count() >= 10 - k);
        // Slot 0 and slot 1 windows are disjoint (cells 0..3 vs 3..6).
        let a: Vec<u32> = block.row(0).to_vec();
        let b: Vec<u32> = block.row(1).to_vec();
        assert!(a.iter().all(|vm| !b.contains(vm)));
    }

    #[test]
    fn faster_vms_own_more_ring_cells() {
        // One VM 8× faster than the rest: it should appear in far more
        // candidate lists than any single slow VM.
        let mut vms: Vec<VmSpec> = (0..16)
            .map(|_| VmSpec::new(500.0, 5_000.0, 512.0, 500.0, 1))
            .collect();
        vms[5] = VmSpec::new(4_000.0, 5_000.0, 512.0, 500.0, 1);
        // Compute-dominated cloudlets (no input staging), so the 8× MIPS
        // gap shows up in the canonical η.
        let cloudlets: Vec<CloudletSpec> = (0..64)
            .map(|_| CloudletSpec::new(2_000.0, 0.0, 0.0, 1))
            .collect();
        let p = SchedulingProblem::single_datacenter(vms, cloudlets, CostModel::default());
        let cache = EvalCache::new(&p);
        let block = cache.candidate_block(0..64, 4, 0.99);
        let mut appearances = [0usize; 16];
        for s in 0..64 {
            for &vm in block.row(s) {
                appearances[vm as usize] += 1;
            }
        }
        // Dedup-walk boundary effects can inflate individual slow VMs
        // sitting just past the fast run, so compare against the *mean*
        // slow appearance count: the fast VM must be clearly over-
        // represented relative to a typical slow VM.
        let slow_total: usize = appearances
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 5)
            .map(|(_, &n)| n)
            .sum();
        let slow_mean = slow_total as f64 / 15.0;
        assert!(
            appearances[5] as f64 > 1.5 * slow_mean,
            "fast VM appears {} times, slow mean {slow_mean:.1}",
            appearances[5]
        );
    }

    #[test]
    fn candidate_block_k_clamps_to_fleet() {
        let p = uniform_problem(4, 8);
        let cache = EvalCache::new(&p);
        let block = cache.candidate_block(0..8, 32, 0.99);
        assert_eq!(block.k(), 4);
    }

    #[test]
    fn retarget_matches_fresh_cache_bitwise() {
        let first = hetero_problem();
        // Same fleet, different cloudlet mix (the next wave).
        let second = SchedulingProblem::new(
            first.vms.clone(),
            (0..31)
                .map(|i| CloudletSpec::new(500.0 + 333.0 * (i % 7) as f64, 50.0, 80.0, 1))
                .collect(),
            first.datacenters.clone(),
            first.vm_placement.clone(),
        )
        .unwrap();
        // A matrix filled for the first wave holds its times; retarget
        // must drop it, or the second wave would read stale entries.
        for filled in [false, true] {
            let mut warm = EvalCache::new(&first);
            if filled {
                warm.expect_evaluations(u64::MAX);
                assert!(warm.has_dense_etc());
            }
            // Prime the ring so retarget provably keeps it working.
            let _ = warm.candidate_block(0..first.cloudlet_count(), 3, 0.99);
            warm.retarget_cloudlets(&second);
            assert!(!warm.has_dense_etc(), "retarget clears the matrix");
            let fresh = EvalCache::new(&second);
            assert_eq!(warm.cloudlet_count(), 31);
            for c in 0..second.cloudlet_count() {
                for v in 0..second.vm_count() {
                    assert_eq!(warm.exec_ms(c, v).to_bits(), fresh.exec_ms(c, v).to_bits());
                    assert_eq!(warm.cost(c, v).to_bits(), fresh.cost(c, v).to_bits());
                }
            }
            let plan = some_plan(&second);
            for objective in Objective::ALL {
                assert_eq!(
                    warm.score(&plan, objective).to_bits(),
                    fresh.score(&plan, objective).to_bits()
                );
            }
            let block = warm.candidate_block(0..31, 3, 0.99);
            assert_eq!(block.slot_count(), 31);
        }
    }

    #[test]
    fn retarget_rejects_fleet_changes() {
        let p = hetero_problem();
        let shrunk = SchedulingProblem::single_datacenter(
            p.vms[..3].to_vec(),
            p.cloudlets.clone(),
            CostModel::default(),
        );
        let mut cache = EvalCache::new(&p);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.retarget_cloudlets(&shrunk)
        }));
        assert!(result.is_err(), "fleet-size change must panic");
    }

    #[test]
    fn empty_plan_scores_zero() {
        let p = hetero_problem();
        let cache = EvalCache::new(&p);
        assert_eq!(cache.score(&[], Objective::Balance), 0.0);
        assert_eq!(cache.score(&[], Objective::Makespan), 0.0);
        assert_eq!(cache.score(&[], Objective::Cost), 0.0);
    }
}
