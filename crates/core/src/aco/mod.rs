//! Ant Colony Optimization scheduler (Section IV of the paper).
//!
//! Ants construct cloudlet→VM tours guided by pheromone trails τ and the
//! heuristic desirability η = 1/d of Eq. 6. The transition rule is Eq. 5,
//! pheromone updates follow Eqs. 7–11, and each ant's tabu list forbids
//! reusing a VM within a tour (the paper's constraint-satisfaction rule).
//!
//! Cloudlets are scheduled in *batches* of at most `batch_size` (clamped to
//! the VM count, since a tour cannot revisit VMs). Each batch runs a full
//! colony: `iterations` rounds of `ants` tour constructions followed by
//! local evaporation + deposit (Eqs. 9–10) and a global best-tour
//! reinforcement (Eq. 11). The best tour ever seen becomes the batch's
//! assignment.
//!
//! A tour's length `L_k` is the sum of Eq. 6 expected execution times of
//! its (cloudlet, VM) pairs — the scheduling analog of the TSP tour length
//! the original ACO minimizes (the paper's Eq. 8 rendering is garbled; the
//! sum interpretation preserves "shorter tour = better schedule").
//!
//! # Hot path
//!
//! Colonies are mutually independent, so `run` pre-draws every ant seed in
//! the exact order the old sequential loop consumed them (colony-major,
//! then iteration, then ant) and fans whole colonies out through
//! [`eval::par_map_if`]; [`AcoRun::step`] fans the same colonies out once
//! per step. One rule, on the estimated weight-row reads per fork, picks
//! the fan-out for both (colonies, else one colony's ants, else serial),
//! and assignments stay byte-identical per seed at any thread count.
//! Inside a colony the Eq. 5 weight is read from two caches instead of
//! calling `powf` per candidate: an η^β block precomputed per batch
//! ([`EvalCache::eta_pow_block`]) and the τ^α snapshot the slot-major
//! [`PheromoneMatrix`] refreshes once per iteration, fused into one dense
//! weight row per slot. The snapshot powers only the colony's own lanes
//! (`0..slots`); the lanes a warm prior carries beyond them stay stale
//! until something touches them, so a small wave replanned on a matrix
//! grown by a large one pays for its own slots only; the fused rows are
//! clipped (non-finite → 0) once, when they are filled.
//!
//! Every ant of an iteration reads the same row at a given slot; only
//! its tabu set and its RNG differ. So full-row tours are built in
//! groups of up to four ants in lockstep, slot by slot: one
//! allocation-free [`full_row::pick_group`] pass over the slot's row
//! carries each ant's in-order mass and spin chains side by side. An
//! ant's tabu set is one bit of a per-VM lane mask, cleared once per
//! group, and each ant draws from its own RNG exactly what the reference
//! draws for it, so plans stay byte-identical by construction. The ant
//! fan-out hands each worker a whole group. The pre-overhaul loop
//! survives verbatim in [`reference`](mod@reference) as the equivalence
//! baseline.
//!
//! # Sampling regimes
//!
//! The candidate-list width k fixes how each Eq. 5 draw is made. With
//! k ≥ #VMs (the paper profile) every non-tabu VM enters a linear
//! roulette that draws what [`reference`](mod@reference) draws, bit for
//! bit. With k < #VMs each slot draws from its per-batch top-η
//! [`CandidateBlock`] by binary search over per-iteration prefix sums
//! ([`prefix_pick`]), rejecting tabu picks a few times before falling
//! back to the exact roulette over the non-tabu candidates.
//!
//! ```
//! use biosched_core::aco::{AcoParams, AntColony};
//! use biosched_core::problem::SchedulingProblem;
//! use biosched_core::scheduler::Scheduler;
//! use simcloud::prelude::*;
//!
//! let problem = SchedulingProblem::single_datacenter(
//!     vec![VmSpec::new(500.0, 5000.0, 512.0, 500.0, 1),
//!          VmSpec::new(4000.0, 5000.0, 512.0, 500.0, 1)],
//!     vec![CloudletSpec::new(10_000.0, 300.0, 300.0, 1); 6],
//!     CostModel::default(),
//! );
//! let mut aco = AntColony::new(AcoParams::fast(), 42);
//! let plan = aco.schedule(&problem);
//! assert!(plan.validate(&problem).is_ok());
//! ```
pub mod full_row;
mod params;
mod pheromone;
pub mod reference;

pub use params::AcoParams;
pub use pheromone::PheromoneMatrix;

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcloud::ids::VmId;
use simcloud::rng::stream;

use crate::assignment::Assignment;
use crate::eval::{self, CandidateBlock, EvalCache};
use crate::problem::SchedulingProblem;
use crate::scheduler::Scheduler;

/// Minimum work one fork must carry before colonies (or, failing that,
/// one colony's ants) fan out over threads, in Eq. 5 weight-row reads
/// (`iterations × ants × cloudlets × k` over what the fork covers).
///
/// Measured against the persistent `vendor/rayon` pool on a 2-vCPU
/// Xeon guest (2.0 GHz): a stage of 8–50 items breaks even at ~20 µs of
/// total work, gains 1.5–1.7× at ~100–160 µs and 1.9–2.0× from ~1 ms.
/// A whole paper-profile call costs 1.9–7.2 ns per nominal read on the
/// full row at one thread (fig6 points, 100 down to 10 VMs, ants built
/// in lockstep groups of four) and tour construction ~4 ns on k = 24
/// candidate rows, so 2¹⁵ reads is ≥ ~60 µs of work: three times the
/// break-even, so every fork this admits gains, and the racer's ACO
/// member (~0.6 ms per fig6 step) qualifies.
const PAR_MIN_WORK: u64 = 1 << 15;

/// Tabu rejection-sampling budget of the candidate-list regime: draw
/// from the unconditioned row distribution up to this many times before
/// switching to the exact non-tabu conditional roulette.
const MAX_TABU_RESAMPLES: usize = 8;

/// The ACO scheduler.
pub struct AntColony {
    params: AcoParams,
    rng: StdRng,
}

impl AntColony {
    /// Creates a colony with the given parameters and seed.
    pub fn new(params: AcoParams, seed: u64) -> Self {
        params.validate().expect("invalid AcoParams");
        AntColony {
            params,
            rng: stream(seed, "aco"),
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &AcoParams {
        &self.params
    }

    /// Like [`Scheduler::schedule`], but also returns the best tour
    /// length after each iteration of the *first* colony — ACO's
    /// convergence curve (subsequent batches behave statistically alike).
    pub fn schedule_traced(&mut self, problem: &SchedulingProblem) -> (Assignment, Vec<f64>) {
        self.run(problem, &EvalCache::new(problem), true, None)
    }

    /// Warm-start entry point for the streaming broker: when `warm` holds
    /// a pheromone matrix from a previous wave it is aged by one
    /// evaporation and becomes every colony's starting trail (its
    /// slot-position preferences — "which VMs are good" — transfer across
    /// waves of similar cloudlets); afterwards `warm` is replaced with the
    /// final matrix of the last colony. A `None` prior behaves exactly
    /// like [`Scheduler::schedule_with_cache`] but still captures.
    pub fn schedule_with_warm_pheromone(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
        warm: &mut Option<PheromoneMatrix>,
    ) -> Assignment {
        self.run(problem, cache, false, Some(warm)).0
    }

    fn run(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
        traced: bool,
        mut warm: Option<&mut Option<PheromoneMatrix>>,
    ) -> (Assignment, Vec<f64>) {
        let params = &self.params;
        // Taking the prior out of the slot keeps it shareable across the
        // parallel fan-out; the last colony's final matrix is carried
        // forward.
        let prior = warm.as_deref_mut().and_then(Option::take);
        cache.expect_evaluations((params.ants as u64).saturating_mul(params.iterations as u64));
        let plan = Prologue::new(
            params,
            &mut self.rng,
            problem.cloudlet_count(),
            problem.vm_count(),
            prior,
        );

        // One fork covers every iteration of every colony.
        let fan_out = plan.fan_out(params, params.iterations);
        let capture = warm.is_some();
        let last = plan.colonies.len().saturating_sub(1);
        let colonies: Vec<(usize, Range<usize>)> = plan.colonies.into_iter().enumerate().collect();
        let results =
            eval::par_map_if(fan_out == FanOut::Colonies, &colonies, |&(i, ref slots)| {
                ColonyState::new(cache, params, slots.clone(), plan.k, plan.prior.as_ref())
                    .run_to_end(
                        cache,
                        params,
                        colony_seeds(&plan.seeds, params, i),
                        traced && i == 0,
                        fan_out == FanOut::Ants,
                        capture && i == last,
                    )
            });

        // Only the first colony traces and only the last one captures.
        let mut map = Vec::with_capacity(problem.cloudlet_count());
        let mut trace = Vec::new();
        let mut captured = None;
        for (tour, colony_trace, matrix) in results {
            map.extend(tour);
            trace.extend(colony_trace);
            captured = captured.or(matrix);
        }
        if let Some(w) = warm {
            *w = captured;
        }
        (Assignment::new(map), trace)
    }
}

/// The setup [`AntColony`] and [`AcoRun`] share before any colony runs:
/// batch clamp, colony slicing, seed pre-draw, regime choice and
/// warm-prior aging.
struct Prologue {
    /// Cloudlets per colony after the clamp.
    batch: usize,
    /// Global cloudlet range of each colony.
    colonies: Vec<Range<usize>>,
    /// Every ant seed, colony-major, then iteration, then ant.
    seeds: Vec<u64>,
    /// Candidate-list width; `k == #VMs` selects the full-row regime.
    k: usize,
    /// Fleet size.
    vms: usize,
    /// The warm prior, aged for this wave.
    prior: Option<PheromoneMatrix>,
}

impl Prologue {
    fn new(
        params: &AcoParams,
        rng: &mut StdRng,
        cloudlets: usize,
        vms: usize,
        prior: Option<PheromoneMatrix>,
    ) -> Self {
        // Clamp: a tour may not revisit VMs, and a tour covering the whole
        // fleet is a bare permutation with no room for preference.
        let fleet_cap = ((vms as f64 * params.max_vm_fraction).ceil() as usize).max(1);
        let batch = params.batch_size.min(fleet_cap).max(1);
        let colonies: Vec<Range<usize>> = (0..cloudlets)
            .step_by(batch)
            .map(|start| start..(start + batch).min(cloudlets))
            .collect();
        // Pre-draw every ant seed in the order the sequential loop used to
        // consume them (colony-major, then iteration, then ant): colonies
        // can then run on any thread count with identical seed streams.
        let seeds = (0..colonies.len() * params.iterations * params.ants)
            .map(|_| rng.gen())
            .collect();
        // The candidate-list regime engages only when the list is a strict
        // subset of the fleet, so any run with k ≥ #VMs takes the
        // reference-equivalent full-row machinery.
        let k = params.candidates.unwrap_or(vms).min(vms);
        // Age the warm prior once per wave. Compaction keeps one
        // candidate-row width of the strongest trails per slot: wide enough
        // to carry "which VMs are good here" across the wave boundary,
        // narrow enough that the next wave's deposits don't pay mid-lane
        // inserts into already-full lanes. Without it the carried matrix
        // grows by every wave's trails (evaporation never shrinks a deposit
        // relative to the base) and warm replanning slows down wave over
        // wave instead of speeding up.
        let prior = prior.map(|mut m| {
            m.evaporate(params.rho);
            m.compact_top(k);
            m
        });
        Prologue {
            batch,
            colonies,
            seeds,
            k,
            vms,
            prior,
        }
    }

    /// The fan-out rule: colonies when there are at least
    /// [`eval::MIN_PAR_ITEMS`] of them and the fork's
    /// `iterations × ants × cloudlets × k` reads reach [`PAR_MIN_WORK`];
    /// otherwise, in the full-row regime, ants, when one colony iteration
    /// (its own fork) reaches it; otherwise serial. Results never depend
    /// on the choice.
    fn fan_out(&self, params: &AcoParams, iterations: usize) -> FanOut {
        let cloudlets = self.colonies.last().map_or(0, |c| c.end);
        let reads = |iterations: usize, cloudlets: usize| {
            (iterations as u64)
                .saturating_mul(params.ants as u64)
                .saturating_mul(cloudlets as u64)
                .saturating_mul(self.k as u64)
        };
        if self.colonies.len() >= eval::MIN_PAR_ITEMS
            && reads(iterations, cloudlets) >= PAR_MIN_WORK
        {
            FanOut::Colonies
        } else if self.k == self.vms && reads(1, self.batch) >= PAR_MIN_WORK {
            FanOut::Ants
        } else {
            FanOut::Serial
        }
    }
}

/// Where one fork's worth of colony work runs. [`AntColony::run`] forks
/// once for the whole run and [`AcoRun::step`] once per step; both pick
/// with [`Prologue::fan_out`], so the rule is one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FanOut {
    /// Everything on the calling thread.
    Serial,
    /// Whole colonies in parallel.
    Colonies,
    /// Too few colonies to fill the pool: each colony iteration fans its
    /// lockstep ant groups out instead, one group per task (full-row
    /// regime only).
    Ants,
}

/// Colony `i`'s ant seeds out of a [`Prologue`]'s colony-major pre-draw,
/// iteration-major.
fn colony_seeds<'a>(seeds: &'a [u64], params: &AcoParams, i: usize) -> &'a [u64] {
    let per_colony = params.iterations * params.ants;
    &seeds[i * per_colony..(i + 1) * per_colony]
}

/// Per-colony iteration state shared by the one-shot scheduler and the
/// anytime [`AcoRun`] stepper: the pheromone matrix, the best tour so
/// far, tour-construction scratch and the regime's weight caches.
/// Factoring the per-iteration body here is what makes "stepped to done ≡
/// one-shot" true by construction rather than by parallel maintenance.
struct ColonyState {
    slots: Range<usize>,
    pheromone: PheromoneMatrix,
    best: Option<(Vec<u32>, f64)>,
    engine: ColonyEngine,
}

/// The two sampling regimes, fixed by the candidate-list width k.
enum ColonyEngine {
    /// k ≥ #VMs: the linear Eq. 5 roulette over every non-tabu VM, bit
    /// for bit what [`reference`] draws, for [`GROUP`] ants at a time.
    /// Holds the batch's full-fleet η^β block and the fused, clipped
    /// τ^α·η^β weight table of the same shape (slot-major), refreshed
    /// from the pheromone snapshot each iteration; `None` when the block
    /// would out-cost the lookups it replaces (→ inline fallback).
    FullRow {
        tables: Option<(Vec<f64>, Vec<f64>)>,
        scratch: GroupScratch,
    },
    /// k < #VMs: the per-batch top-η [`CandidateBlock`] with prefix-sum
    /// draws over its per-iteration weight rows. Makes no bitwise claim
    /// against [`reference`]; the quality gate lives in `schedbench` and
    /// the plans are pinned by the `aco_golden` test.
    CandidateList {
        block: CandidateBlock,
        rows: CandidateRows,
        scratch: TourScratch,
    },
}

impl ColonyState {
    /// Builds a colony over `slots` (global cloudlet indices) starting
    /// from `prior` (or the fresh initial matrix) in the regime `k`
    /// selects.
    fn new(
        cache: &EvalCache,
        params: &AcoParams,
        slots: Range<usize>,
        k: usize,
        prior: Option<&PheromoneMatrix>,
    ) -> Self {
        let v = cache.vm_count();
        let engine = if k < v {
            let block = cache.candidate_block(slots.clone(), k, params.beta);
            let rows = CandidateRows::new(slots.len(), block.k());
            ColonyEngine::CandidateList {
                block,
                rows,
                scratch: TourScratch::new(v),
            }
        } else {
            let expected_lookups = params
                .ants
                .saturating_mul(params.iterations)
                .saturating_mul(slots.len())
                .saturating_mul(v);
            let tables = cache
                .eta_pow_block(slots.clone(), params.beta, expected_lookups)
                .map(|eta| {
                    let weights = vec![0.0; eta.len()];
                    (eta, weights)
                });
            ColonyEngine::FullRow {
                tables,
                scratch: GroupScratch::new(v),
            }
        };
        ColonyState {
            pheromone: match prior {
                Some(p) => p.clone(),
                None => PheromoneMatrix::new(params.initial_pheromone),
            },
            best: None,
            slots,
            engine,
        }
    }

    /// One colony iteration: refresh the weight caches from the pheromone
    /// snapshot, construct every ant's tour from `iter_seeds`, apply the
    /// pheromone updates. Returns the best tour length so far.
    fn iterate(
        &mut self,
        cache: &EvalCache,
        params: &AcoParams,
        iter_seeds: &[u64],
        ants_parallel: bool,
    ) -> f64 {
        let v = cache.vm_count();
        let slots = self.slots.clone();
        let tours: Vec<(Vec<u32>, f64)> = match &mut self.engine {
            ColonyEngine::FullRow { tables, scratch } => {
                self.pheromone.prepare_pow(params.alpha, slots.len());
                if let Some((eta, weights)) = tables.as_mut() {
                    for s in 0..slots.len() {
                        self.pheromone.fill_weight_row(
                            s,
                            &eta[s * v..(s + 1) * v],
                            &mut weights[s * v..(s + 1) * v],
                        );
                    }
                }
                let weights = tables.as_ref().map(|(_, w)| w.as_slice());
                let pheromone = &self.pheromone;
                let group = |seeds: &[u64], scratch: &mut GroupScratch| {
                    construct_group(
                        cache,
                        slots.clone(),
                        pheromone,
                        params,
                        seeds,
                        weights,
                        scratch,
                    )
                };
                if ants_parallel {
                    let groups: Vec<&[u64]> = iter_seeds.chunks(GROUP).collect();
                    eval::par_map(&groups, |seeds| group(seeds, &mut GroupScratch::new(v)))
                        .into_iter()
                        .flatten()
                        .collect()
                } else {
                    iter_seeds
                        .chunks(GROUP)
                        .flat_map(|seeds| group(seeds, scratch))
                        .collect()
                }
            }
            ColonyEngine::CandidateList {
                block,
                rows,
                scratch,
            } => {
                // Incremental τ^α refresh: evaporation's uniform rescale
                // becomes one scalar multiply per clean entry, and only
                // deposited-this-iteration edges pay a powf.
                self.pheromone
                    .prepare_pow_incremental(params.alpha, slots.len());
                rows.refresh(&self.pheromone, block);
                iter_seeds
                    .iter()
                    .map(|&seed| {
                        construct_tour_topk(
                            cache,
                            slots.clone(),
                            params,
                            seed,
                            block,
                            rows,
                            scratch,
                        )
                    })
                    .collect()
            }
        };
        apply_pheromone_updates(&mut self.pheromone, params, tours, &mut self.best)
    }

    /// The best tour found so far (empty before the first iteration).
    fn best_tour(&self) -> &[u32] {
        self.best.as_ref().map(|(t, _)| t.as_slice()).unwrap_or(&[])
    }

    /// Runs a one-shot colony through every iteration of its pre-drawn
    /// `seeds`. Returns the best tour plus, when `traced`, the best length
    /// per iteration, plus, when `capture`, the colony's final pheromone
    /// matrix (the warm prior of the next wave).
    fn run_to_end(
        mut self,
        cache: &EvalCache,
        params: &AcoParams,
        seeds: &[u64],
        traced: bool,
        ants_parallel: bool,
        capture: bool,
    ) -> (Vec<VmId>, Vec<f64>, Option<PheromoneMatrix>) {
        let mut trace = Vec::new();
        for iter_seeds in seeds.chunks(params.ants) {
            let best_len = self.iterate(cache, params, iter_seeds, ants_parallel);
            if traced {
                trace.push(best_len);
            }
        }
        let tour = self
            .best
            .expect("ants always produce tours")
            .0
            .into_iter()
            .map(VmId)
            .collect();
        (tour, trace, capture.then_some(self.pheromone))
    }
}

/// The per-iteration pheromone bookkeeping both regimes share: local
/// update (Eqs. 9–10 — evaporate once, every ant deposits Q/L_k along its
/// tour), global-best tracking and the Eq. 11 best-tour reinforcement.
/// Returns the best tour length so far (the traced convergence value).
fn apply_pheromone_updates(
    pheromone: &mut PheromoneMatrix,
    params: &AcoParams,
    tours: Vec<(Vec<u32>, f64)>,
    best: &mut Option<(Vec<u32>, f64)>,
) -> f64 {
    pheromone.evaporate(params.rho);
    for (tour, len) in &tours {
        let dq = params.q / len.max(f64::MIN_POSITIVE);
        for (i, vm) in tour.iter().enumerate() {
            pheromone.deposit(i as u32, *vm, dq);
        }
    }

    for (tour, len) in tours {
        if best.as_ref().is_none_or(|(_, b)| len < *b) {
            *best = Some((tour, len));
        }
    }
    let (bt, bl) = best.as_ref().expect("ants always produce tours");
    let dq = params.q / bl.max(f64::MIN_POSITIVE);
    for (i, vm) in bt.iter().enumerate() {
        pheromone.deposit(i as u32, *vm, dq);
    }
    *bl
}

/// The anytime ACO run: every colony's `ColonyState` plus a shared
/// iteration cursor. One [`AcoRun::step`] call advances *every* colony by
/// one iteration (colonies evolve in lockstep, iteration-major), charging
/// `ants` evaluation units — each of the `ants` tours per colony covers
/// only that colony's batch, so all colonies together construct `ants`
/// full assignments per step.
///
/// Ant seeds are pre-drawn colony-major exactly like `AntColony::run`
/// and colonies are mutually independent, so a fresh `AcoRun` stepped to
/// completion picks the same per-colony best tours as the one-shot
/// scheduler — bit-identical plans (asserted in tests for both regimes).
/// A step fans out by the one-shot path's work-size rule, applied to one
/// iteration's work; parallelism never changes results, only wall clock.
pub struct AcoRun {
    params: AcoParams,
    /// Each colony with its index into the colony-major seed pre-draw.
    colonies: Vec<(usize, ColonyState)>,
    seeds: Vec<u64>,
    iter: usize,
    fan_out: FanOut,
}

impl AcoRun {
    /// Starts a run from a cold seed with [`AntColony`]'s prologue; a
    /// given `prior` is cloned and aged like a warm wave's.
    pub fn cold(
        params: AcoParams,
        seed: u64,
        cache: &EvalCache,
        prior: Option<&PheromoneMatrix>,
    ) -> Self {
        params.validate().expect("invalid AcoParams");
        cache.expect_evaluations((params.ants as u64).saturating_mul(params.iterations as u64));
        let plan = Prologue::new(
            &params,
            &mut stream(seed, "aco"),
            cache.cloudlet_count(),
            cache.vm_count(),
            prior.cloned(),
        );
        // One fork per step, covering one iteration of every colony.
        let fan_out = plan.fan_out(&params, 1);
        let colonies = plan
            .colonies
            .iter()
            .map(|slots| {
                ColonyState::new(cache, &params, slots.clone(), plan.k, plan.prior.as_ref())
            })
            .enumerate()
            .collect();
        AcoRun {
            params,
            colonies,
            seeds: plan.seeds,
            iter: 0,
            fan_out,
        }
    }

    /// Evaluation units one [`AcoRun::step`] charges (`ants` full
    /// assignments across all colonies; see the type docs).
    pub fn step_units(&self) -> u64 {
        self.params.ants as u64
    }

    /// True once every planned iteration has run (or the workload is
    /// empty).
    pub fn done(&self) -> bool {
        self.iter >= self.params.iterations || self.colonies.is_empty()
    }

    /// Advances every colony by one iteration. Returns the minimum best
    /// tour length across colonies (informational — racing re-scores the
    /// incumbent under its own objective).
    pub fn step(&mut self, cache: &EvalCache) -> f64 {
        if self.done() {
            return 0.0;
        }
        let (params, seeds, iter) = (&self.params, &self.seeds, self.iter);
        let fan_out = self.fan_out;
        let lens = eval::par_map_mut_if(
            fan_out == FanOut::Colonies,
            &mut self.colonies,
            |(i, colony)| {
                let iter_seeds = &colony_seeds(seeds, params, *i)[iter * params.ants..];
                colony.iterate(
                    cache,
                    params,
                    &iter_seeds[..params.ants],
                    fan_out == FanOut::Ants,
                )
            },
        );
        self.iter += 1;
        lens.into_iter().fold(f64::INFINITY, f64::min)
    }

    /// The full-workload incumbent: every colony's best tour,
    /// concatenated in cloudlet order. `None` before the first step
    /// (colonies have no tours yet) on non-empty workloads.
    pub fn incumbent(&self) -> Option<Vec<u32>> {
        if self.iter == 0 && !self.colonies.is_empty() {
            return None;
        }
        let mut genes = Vec::with_capacity(self.colonies.iter().map(|(_, c)| c.slots.len()).sum());
        for (_, colony) in &self.colonies {
            genes.extend_from_slice(colony.best_tour());
        }
        Some(genes)
    }
}

/// Per-iteration fused Eq. 5 weight rows of the candidate-list regime:
/// slot-major k-wide `τ^α·η^β` rows plus their running prefix sums, so a
/// draw is an O(log k) binary search.
struct CandidateRows {
    k: usize,
    weights: Vec<f64>,
    prefix: Vec<f64>,
}

impl CandidateRows {
    fn new(slots: usize, k: usize) -> Self {
        CandidateRows {
            k,
            weights: vec![0.0; slots * k],
            prefix: vec![0.0; slots * k],
        }
    }

    /// Rebuilds every row from the current pheromone snapshot (call after
    /// [`PheromoneMatrix::prepare_pow`]). Non-finite products clip to 0,
    /// like the full-row regime.
    fn refresh(&mut self, pheromone: &PheromoneMatrix, block: &CandidateBlock) {
        let k = self.k;
        for s in 0..block.slot_count() {
            let row = block.row(s);
            let eta = block.eta_row(s);
            let mut acc = 0.0;
            for r in 0..k {
                let w = pheromone.get_pow(s as u32, row[r]) * eta[r];
                let w = if w.is_finite() { w } else { 0.0 };
                self.weights[s * k + r] = w;
                acc += w;
                self.prefix[s * k + r] = acc;
            }
        }
    }

    #[inline]
    fn weight_row(&self, s: usize) -> &[f64] {
        &self.weights[s * self.k..(s + 1) * self.k]
    }

    #[inline]
    fn prefix_row(&self, s: usize) -> &[f64] {
        &self.prefix[s * self.k..(s + 1) * self.k]
    }
}

/// O(log k) roulette over a non-decreasing prefix-sum row: the smallest
/// index whose prefix strictly exceeds `spin` — exactly the index a linear
/// left-to-right scan (`spin < prefix[i]`) of the same row returns. A spin
/// at or beyond the total clamps to the last index.
pub fn prefix_pick(prefix: &[f64], spin: f64) -> usize {
    debug_assert!(!prefix.is_empty());
    prefix.partition_point(|&p| p <= spin).min(prefix.len() - 1)
}

/// One ant's tour in the candidate-list regime: per slot, draw from the
/// full-row distribution by prefix binary search, rejecting tabu picks up
/// to [`MAX_TABU_RESAMPLES`] times before switching to the exact roulette
/// conditioned on the non-tabu candidates; a fully-tabu row falls back to
/// the first free VM scanning from a random start.
fn construct_tour_topk(
    cache: &EvalCache,
    slots: Range<usize>,
    params: &AcoParams,
    seed: u64,
    block: &CandidateBlock,
    rows: &CandidateRows,
    scratch: &mut TourScratch,
) -> (Vec<u32>, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let v = cache.vm_count();
    let k = block.k();
    scratch.begin_ant();
    let mut tour = Vec::with_capacity(slots.len());
    let mut length = 0.0;

    for (slot_idx, c) in slots.enumerate() {
        let row = block.row(slot_idx);
        let weights = rows.weight_row(slot_idx);
        let mut chosen: Option<u32> = None;

        if params.q0 > 0.0 && rng.gen_range(0.0..1.0) < params.q0 {
            // ACS exploitation: argmax over the non-tabu candidates.
            let mut best: Option<(u32, f64)> = None;
            for r in 0..k {
                let j = row[r];
                if scratch.is_tabu(j) {
                    continue;
                }
                if best.is_none_or(|(_, bw)| weights[r].total_cmp(&bw).is_gt()) {
                    best = Some((j, weights[r]));
                }
            }
            chosen = best.map(|(j, _)| j);
        } else {
            let prefix = rows.prefix_row(slot_idx);
            let total = prefix[k - 1];
            if total.is_finite() && total > 0.0 {
                for _ in 0..MAX_TABU_RESAMPLES {
                    let j = row[prefix_pick(prefix, rng.gen_range(0.0..total))];
                    if !scratch.is_tabu(j) {
                        chosen = Some(j);
                        break;
                    }
                }
            }
        }

        if chosen.is_none() {
            // Exact conditional: roulette over the non-tabu candidates.
            scratch.begin_slot();
            let mut total = 0.0;
            for (&j, &w) in row.iter().zip(weights) {
                if scratch.is_tabu(j) {
                    continue;
                }
                scratch.candidates.push(j);
                scratch.weights.push(w);
                total += w;
            }
            if scratch.candidates.is_empty() {
                // Whole row tabu: first free VM from a random start.
                let start = rng.gen_range(0..v);
                chosen = (0..v)
                    .map(|off| ((start + off) % v) as u32)
                    .find(|&j| !scratch.is_tabu(j));
            } else {
                let pick = roulette(&mut rng, &scratch.weights, total);
                chosen = Some(scratch.candidates[pick]);
            }
        }

        let j = chosen.expect("tabu cannot exhaust all VMs");
        scratch.make_tabu(j);
        tour.push(j);
        length += cache.exec_ms(c, j as usize);
    }
    (tour, length)
}

/// Reusable per-colony buffers for candidate-list tour construction.
/// Tabu membership is a generation-stamped array (`stamp[j] == gen`
/// means "tabu"), so clearing the set between ants is a counter bump
/// instead of an O(v) wipe or a fresh allocation.
struct TourScratch {
    tabu_stamp: Vec<u32>,
    tabu_gen: u32,
    /// The fallback's non-tabu candidates and weights.
    candidates: Vec<u32>,
    weights: Vec<f64>,
}

impl TourScratch {
    fn new(v: usize) -> Self {
        TourScratch {
            tabu_stamp: vec![0; v],
            tabu_gen: 0,
            candidates: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Starts a fresh ant: one bump empties the tabu set.
    fn begin_ant(&mut self) {
        if self.tabu_gen == u32::MAX {
            self.tabu_stamp.fill(0);
            self.tabu_gen = 0;
        }
        self.tabu_gen += 1;
    }

    /// Starts a fresh slot: empties the candidate and weight lists.
    fn begin_slot(&mut self) {
        self.candidates.clear();
        self.weights.clear();
    }

    #[inline]
    fn is_tabu(&self, j: u32) -> bool {
        self.tabu_stamp[j as usize] == self.tabu_gen
    }

    #[inline]
    fn make_tabu(&mut self, j: u32) {
        self.tabu_stamp[j as usize] = self.tabu_gen;
    }
}

/// Ants built in lockstep per full-row group. Four lanes fill two SSE2
/// vectors per row chain, eight measured no faster on a kernel probe,
/// and a 50-ant iteration still splits into the 13 tasks an ant fan-out
/// needs ([`eval::MIN_PAR_ITEMS`] is 8).
const GROUP: usize = 4;

/// Reusable buffers for one full-row group: the lanes' tabu bitmasks,
/// their RNGs and the inline weight row.
struct GroupScratch {
    /// Bit `l` of `tabu[j]` is set iff VM `j` is tabu for lane `l`.
    tabu: Vec<u8>,
    rngs: Vec<StdRng>,
    /// The inline weight row, filled per slot when the fused weight table
    /// was declined.
    row: Vec<f64>,
}

impl GroupScratch {
    fn new(v: usize) -> Self {
        GroupScratch {
            tabu: vec![0; v],
            rngs: Vec::with_capacity(GROUP),
            row: Vec::new(),
        }
    }
}

/// One group's tours in the full-row regime: up to [`GROUP`] ants, each
/// seeded from its entry of `seeds`, built slot by slot in lockstep. Per
/// slot one [`full_row::pick_group`] pass over the slot's weight row
/// serves every lane, and each lane draws from its own RNG exactly what
/// [`reference`] draws for that ant, so every tour is byte-identical to
/// the pre-overhaul loop's. Returns the tours in seed order.
fn construct_group(
    cache: &EvalCache,
    slots: Range<usize>,
    pheromone: &PheromoneMatrix,
    params: &AcoParams,
    seeds: &[u64],
    weight_block: Option<&[f64]>,
    scratch: &mut GroupScratch,
) -> Vec<(Vec<u32>, f64)> {
    let v = cache.vm_count();
    let b = slots.len();
    debug_assert!(b <= v, "batch must be clamped to the VM count");
    debug_assert!((1..=GROUP).contains(&seeds.len()));

    scratch.tabu.fill(0);
    scratch.rngs.clear();
    scratch
        .rngs
        .extend(seeds.iter().map(|&seed| StdRng::seed_from_u64(seed)));
    let every_lane = u8::MAX >> (8 - seeds.len());
    let mut tours: Vec<(Vec<u32>, f64)> =
        seeds.iter().map(|_| (Vec::with_capacity(b), 0.0)).collect();

    for (slot_idx, c) in slots.enumerate() {
        // Eq. 5: p(j) ∝ τ(i,j)^α · η(i,j)^β — the slot's row of the fused
        // weight table, or, where the table was declined, the clipped
        // cached-τ^α × inline-η^β products, filled once for the group
        // (identical bits either way). VMs tabu for every lane are left
        // at 0: the kernel masks them for each lane anyway.
        let row = match weight_block {
            Some(block) => &block[slot_idx * v..(slot_idx + 1) * v],
            None => {
                scratch.row.resize(v, 0.0);
                for (j, (w, &m)) in scratch.row.iter_mut().zip(&scratch.tabu).enumerate() {
                    *w = if m == every_lane {
                        0.0
                    } else {
                        full_row::clip(
                            pheromone.get_pow(slot_idx as u32, j as u32)
                                * cache.heuristic(c, j).powf(params.beta),
                        )
                    };
                }
                &scratch.row[..]
            }
        };
        let picks =
            full_row::pick_group::<GROUP, _>(&mut scratch.rngs, row, &scratch.tabu, params.q0);
        for (l, ((tour, length), &j)) in tours.iter_mut().zip(&picks).enumerate() {
            scratch.tabu[j] |= 1 << l;
            tour.push(j as u32);
            *length += cache.exec_ms(c, j);
        }
    }
    tours
}

/// Roulette-wheel selection; degenerates to uniform if all weights vanish.
fn roulette(rng: &mut StdRng, weights: &[f64], total: f64) -> usize {
    debug_assert!(!weights.is_empty());
    if !(total.is_finite() && total > 0.0) {
        return rng.gen_range(0..weights.len());
    }
    let mut spin = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        spin -= w;
        if spin <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

impl Scheduler for AntColony {
    fn name(&self) -> &'static str {
        "ant-colony"
    }

    fn schedule(&mut self, problem: &SchedulingProblem) -> Assignment {
        self.run(problem, &EvalCache::new(problem), false, None).0
    }

    fn schedule_with_cache(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
    ) -> Assignment {
        self.run(problem, cache, false, None).0
    }

    fn schedule_warm(
        &mut self,
        problem: &SchedulingProblem,
        cache: &EvalCache,
        warm: &mut crate::warm::WarmState,
    ) -> Assignment {
        let plan = self.schedule_with_warm_pheromone(problem, cache, &mut warm.pheromone);
        warm.note_plan(&plan);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::vm::VmSpec;

    fn hetero_problem(vms: usize, cloudlets: usize) -> SchedulingProblem {
        // Alternating slow/fast VMs, uniform cloudlets.
        let vm_specs: Vec<VmSpec> = (0..vms)
            .map(|i| {
                let mips = if i % 2 == 0 { 500.0 } else { 4_000.0 };
                VmSpec::new(mips, 5_000.0, 512.0, 500.0, 1)
            })
            .collect();
        let cl = CloudletSpec::new(10_000.0, 0.0, 0.0, 1);
        SchedulingProblem::single_datacenter(vm_specs, vec![cl; cloudlets], CostModel::default())
    }

    #[test]
    fn produces_complete_valid_assignment() {
        let p = hetero_problem(10, 37);
        let a = AntColony::new(AcoParams::fast(), 1).schedule(&p);
        assert!(a.validate(&p).is_ok());
        assert_eq!(a.len(), 37);
    }

    #[test]
    fn tabu_forbids_vm_reuse_within_batch() {
        let p = hetero_problem(16, 16);
        let params = AcoParams {
            batch_size: 16,
            max_vm_fraction: 1.0,
            ..AcoParams::fast()
        };
        let a = AntColony::new(params, 2).schedule(&p);
        let mut seen = std::collections::HashSet::new();
        for vm in a.as_slice() {
            assert!(seen.insert(*vm), "VM {vm} reused within a single batch");
        }
    }

    #[test]
    fn batch_clamped_to_fleet_fraction() {
        // 10 VMs, fraction 0.5 -> batches of 5: within any window of 5
        // consecutive cloudlets every VM is distinct.
        let p = hetero_problem(10, 20);
        let params = AcoParams {
            batch_size: 128,
            max_vm_fraction: 0.5,
            ..AcoParams::fast()
        };
        let a = AntColony::new(params, 11).schedule(&p);
        for chunk in a.as_slice().chunks(5) {
            let distinct: std::collections::HashSet<_> = chunk.iter().collect();
            assert_eq!(distinct.len(), chunk.len());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = hetero_problem(8, 40);
        let a = AntColony::new(AcoParams::fast(), 9).schedule(&p);
        let b = AntColony::new(AcoParams::fast(), 9).schedule(&p);
        assert_eq!(a, b);
        let c = AntColony::new(AcoParams::fast(), 10).schedule(&p);
        // Different seeds almost surely differ on 40 choices.
        assert_ne!(a, c);
    }

    #[test]
    fn favors_fast_vms() {
        // β=0.99 makes ants strongly heuristic-driven: fast VMs must
        // receive clearly more cloudlets than slow ones.
        let p = hetero_problem(10, 200);
        let a = AntColony::new(AcoParams::paper(), 3).schedule(&p);
        let counts = a.counts_per_vm(10);
        let slow: usize = counts.iter().step_by(2).sum();
        let fast: usize = counts.iter().skip(1).step_by(2).sum();
        assert!(
            fast > slow * 2,
            "fast VMs should dominate: fast={fast} slow={slow}"
        );
    }

    #[test]
    fn beats_round_robin_on_estimated_makespan() {
        use crate::round_robin::RoundRobin;
        let p = hetero_problem(10, 100);
        let aco = AntColony::new(AcoParams::paper(), 4).schedule(&p);
        let rr = RoundRobin::new().schedule(&p);
        assert!(
            aco.estimated_makespan_ms(&p) < rr.estimated_makespan_ms(&p),
            "ACO {} should beat RR {}",
            aco.estimated_makespan_ms(&p),
            rr.estimated_makespan_ms(&p)
        );
    }

    #[test]
    fn trace_is_monotone_and_harmless() {
        let p = hetero_problem(12, 24);
        let (plan, trace) = AntColony::new(AcoParams::fast(), 13).schedule_traced(&p);
        assert_eq!(trace.len(), AcoParams::fast().iterations);
        // The global best tour length never regresses.
        assert!(trace.windows(2).all(|w| w[1] <= w[0] + 1e-12));
        // Tracing does not change the schedule.
        let untraced = AntColony::new(AcoParams::fast(), 13).schedule(&p);
        assert_eq!(plan, untraced);
    }

    #[test]
    fn single_vm_degenerates_gracefully() {
        let p = hetero_problem(1, 5);
        let a = AntColony::new(AcoParams::fast(), 5).schedule(&p);
        assert!(a.as_slice().iter().all(|v| v.index() == 0));
    }

    #[test]
    fn acs_exploitation_is_valid_and_greedier() {
        let p = hetero_problem(10, 100);
        let acs = AntColony::new(
            AcoParams {
                q0: 0.9,
                ..AcoParams::fast()
            },
            30,
        )
        .schedule(&p);
        assert!(acs.validate(&p).is_ok());
        // Full exploitation (q0=1) is near-deterministic given the
        // pheromone trajectory and must still cover everything.
        let greedy = AntColony::new(
            AcoParams {
                q0: 1.0,
                ..AcoParams::fast()
            },
            30,
        )
        .schedule(&p);
        assert_eq!(greedy.len(), 100);
    }

    #[test]
    fn exhaustive_candidates_work() {
        // candidates = None examines every VM per choice.
        let p = hetero_problem(6, 12);
        let params = AcoParams {
            candidates: None,
            ..AcoParams::fast()
        };
        let a = AntColony::new(params, 20).schedule(&p);
        assert!(a.validate(&p).is_ok());
    }

    #[test]
    fn more_cloudlets_than_vms_by_far() {
        // 3 VMs, 50 cloudlets: many tiny batches of ceil(3*0.5)=2.
        let p = hetero_problem(3, 50);
        let a = AntColony::new(AcoParams::fast(), 21).schedule(&p);
        assert_eq!(a.len(), 50);
        let counts = a.counts_per_vm(3);
        assert!(
            counts.iter().all(|c| *c > 0),
            "all VMs see work: {counts:?}"
        );
    }

    #[test]
    fn repeated_rounds_advance_rng_state() {
        // Two consecutive schedule() calls on one colony instance draw
        // fresh ant seeds — rounds differ (statistically certain here).
        let p = hetero_problem(10, 30);
        let mut colony = AntColony::new(AcoParams::fast(), 22);
        let first = colony.schedule(&p);
        let second = colony.schedule(&p);
        assert_ne!(first, second);
    }

    #[test]
    fn roulette_respects_weights() {
        let mut rng = StdRng::seed_from_u64(0);
        let weights = [0.0, 0.0, 10.0];
        for _ in 0..32 {
            assert_eq!(roulette(&mut rng, &weights, 10.0), 2);
        }
        // Degenerate: all-zero weights fall back to uniform.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            seen.insert(roulette(&mut rng, &[0.0, 0.0], 0.0));
        }
        assert_eq!(seen.len(), 2);
    }

    /// Candidate-list params: k strictly below the fleet size so the
    /// candidate-list regime engages.
    fn topk_params(k: usize) -> AcoParams {
        AcoParams {
            candidates: Some(k),
            ..AcoParams::fast()
        }
    }

    #[test]
    fn topk_path_produces_complete_valid_assignment() {
        let p = hetero_problem(40, 200);
        let a = AntColony::new(topk_params(8), 7).schedule(&p);
        assert!(a.validate(&p).is_ok());
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn topk_path_respects_tabu_within_batch() {
        let p = hetero_problem(32, 64);
        let params = AcoParams {
            batch_size: 16,
            max_vm_fraction: 1.0,
            ..topk_params(8)
        };
        let a = AntColony::new(params, 3).schedule(&p);
        for chunk in a.as_slice().chunks(16) {
            let distinct: std::collections::HashSet<_> = chunk.iter().collect();
            assert_eq!(distinct.len(), chunk.len(), "VM reused within a batch");
        }
    }

    #[test]
    fn topk_path_favors_fast_vms() {
        let p = hetero_problem(40, 400);
        let params = AcoParams {
            candidates: Some(8),
            ..AcoParams::paper()
        };
        let a = AntColony::new(params, 5).schedule(&p);
        let counts = a.counts_per_vm(40);
        let slow: usize = counts.iter().step_by(2).sum();
        let fast: usize = counts.iter().skip(1).step_by(2).sum();
        assert!(
            fast > slow,
            "fast VMs should receive more work: fast={fast} slow={slow}"
        );
    }

    #[test]
    fn topk_traced_convergence_is_monotone() {
        let p = hetero_problem(64, 128);
        let (plan, trace) = AntColony::new(topk_params(8), 23).schedule_traced(&p);
        assert!(plan.validate(&p).is_ok());
        assert_eq!(trace.len(), AcoParams::fast().iterations);
        assert!(trace.windows(2).all(|w| w[1] <= w[0] + 1e-12));
    }

    #[test]
    fn prefix_pick_matches_linear_scan() {
        // Zero-width cells (zero weights, as clipped non-finite products
        // produce) repeat a prefix value; a spin on that boundary must skip
        // the empty cell exactly as the linear scan does (`want` is the
        // first index with `spin < prefix[i]`, else the last index).
        let prefix = [0.5, 0.5, 2.0, 2.0, 3.5];
        let spins = [0.0, 0.4999, 0.5, 1.0, 1.9999, 2.0, 3.4, 10.0];
        for (spin, want) in spins.into_iter().zip([0, 0, 2, 2, 2, 4, 4, 4]) {
            assert_eq!(prefix_pick(&prefix, spin), want, "spin={spin}");
        }
    }

    #[test]
    fn scale_profile_on_a_small_wave_leaves_the_etc_matrix_unbuilt() {
        // The stream broker's wave shape: 400 ant tours of 20 cloudlets
        // read fewer times than a 2 000-VM matrix holds.
        let p = hetero_problem(2_000, 20);
        let cache = EvalCache::new(&p);
        AntColony::new(AcoParams::for_scale(20), 3).schedule_with_cache(&p, &cache);
        assert!(!cache.has_dense_etc());
    }

    #[test]
    fn warm_none_prior_matches_cold_schedule() {
        // An empty warm slot must not perturb the plan — only capture.
        let p = hetero_problem(16, 60);
        let cache = EvalCache::new(&p);
        for params in [AcoParams::fast(), topk_params(8)] {
            let mut warm = None;
            let warm_plan = AntColony::new(params.clone(), 9)
                .schedule_with_warm_pheromone(&p, &cache, &mut warm);
            let cold_plan = AntColony::new(params.clone(), 9).schedule_with_cache(&p, &cache);
            assert_eq!(warm_plan, cold_plan);
            assert!(warm.is_some(), "matrix captured for the next wave");
        }
    }

    #[test]
    fn warm_prior_reuse_is_deterministic_per_seed() {
        let p = hetero_problem(20, 80);
        for params in [AcoParams::fast(), topk_params(8)] {
            let run_two_waves = || {
                let cache = EvalCache::new(&p);
                let mut warm = None;
                let first = AntColony::new(params.clone(), 5)
                    .schedule_with_warm_pheromone(&p, &cache, &mut warm);
                let second = AntColony::new(params.clone(), 6)
                    .schedule_with_warm_pheromone(&p, &cache, &mut warm);
                (first, second)
            };
            let (a1, a2) = run_two_waves();
            let (b1, b2) = run_two_waves();
            assert_eq!(a1, b1);
            assert_eq!(a2, b2);
            assert!(a2.validate(&p).is_ok());
        }
    }

    #[test]
    fn anytime_run_matches_one_shot_bitwise() {
        // The anytime contract the racing driver relies on: a cold AcoRun
        // stepped to completion picks the one-shot plan, same bits — on
        // both the full-row and the candidate-list regimes, and on batched
        // workloads (several colonies advancing in lockstep).
        let p = hetero_problem(14, 90);
        let cache = EvalCache::new(&p);
        for params in [AcoParams::fast(), topk_params(8)] {
            let mut run = AcoRun::cold(params.clone(), 17, &cache, None);
            assert!(run.incumbent().is_none(), "no tours before the first step");
            let mut steps = 0;
            while !run.done() {
                run.step(&cache);
                steps += 1;
            }
            assert_eq!(steps, params.iterations);
            assert_eq!(run.step_units(), params.ants as u64);
            let stepped = run.incumbent().expect("stepped to completion");
            let one_shot = AntColony::new(params, 17).schedule_with_cache(&p, &cache);
            let one_shot: Vec<u32> = one_shot.as_slice().iter().map(|vm| vm.0).collect();
            assert_eq!(stepped, one_shot);
        }
    }

    #[test]
    fn ants_fan_out_only_in_the_full_row_regime() {
        // One 128-slot colony: too few colonies to fan out, and one
        // iteration's 50 × 128 × k reads clear PAR_MIN_WORK at both widths.
        let rule = |candidates| {
            let params = AcoParams {
                candidates,
                ..AcoParams::paper()
            };
            let plan = Prologue::new(&params, &mut stream(1, "aco"), 128, 400, None);
            assert_eq!(plan.colonies.len(), 1);
            plan.fan_out(&params, params.iterations)
        };
        assert_eq!(rule(None), FanOut::Ants);
        // Candidate-list colonies build their tours serially.
        assert_eq!(rule(Some(32)), FanOut::Serial);
    }

    #[test]
    fn matches_reference_implementation() {
        // The optimized hot path must pick byte-identical tours. (The
        // cross-thread-count matrix lives in tests/scheduler_equivalence.)
        for seed in [9u64, 77, 1234] {
            let p = hetero_problem(14, 90);
            let new = AntColony::new(AcoParams::fast(), seed).schedule(&p);
            let old = reference::schedule_reference(&AcoParams::fast(), seed, &p);
            assert_eq!(new, old, "seed {seed} diverged from the reference");
        }
    }

    #[test]
    fn inline_rows_match_the_fused_table() {
        // The scheduler declines the η^β block only for one-ant,
        // one-iteration runs or huge fleets, so drive both row sources
        // directly, for a full group and a short one, over a matrix with
        // deposits.
        let p = hetero_problem(20, 10);
        let cache = EvalCache::new(&p);
        let v = cache.vm_count();
        let params = AcoParams {
            candidates: None,
            ..AcoParams::paper()
        };
        let slots = 0..10;
        let mut pheromone = PheromoneMatrix::new(params.initial_pheromone);
        for s in 0..10u32 {
            pheromone.deposit(s, (3 * s) % 20, 0.5 + f64::from(s));
        }
        pheromone.evaporate(params.rho);
        pheromone.prepare_pow(params.alpha, slots.len());
        let eta = cache
            .eta_pow_block(slots.clone(), params.beta, usize::MAX)
            .expect("small block materializes");
        let mut table = vec![0.0; eta.len()];
        for s in 0..slots.len() {
            let row = s * v..(s + 1) * v;
            pheromone.fill_weight_row(s, &eta[row.clone()], &mut table[row]);
        }
        for seeds in [&[1u64, 2, 3, 4][..], &[5, 6, 7]] {
            let group = |block| {
                let scratch = &mut GroupScratch::new(v);
                construct_group(
                    &cache,
                    slots.clone(),
                    &pheromone,
                    &params,
                    seeds,
                    block,
                    scratch,
                )
            };
            assert_eq!(group(Some(&table)), group(None));
        }
    }

    #[test]
    fn matches_reference_when_eta_block_declined() {
        // One ant × one iteration makes the η^β block unprofitable, so
        // construct_tour exercises the inline powf fallback.
        let params = AcoParams {
            ants: 1,
            iterations: 1,
            ..AcoParams::fast()
        };
        let p = hetero_problem(20, 55);
        let new = AntColony::new(params.clone(), 31).schedule(&p);
        let old = reference::schedule_reference(&params, 31, &p);
        assert_eq!(new, old);
    }
}
