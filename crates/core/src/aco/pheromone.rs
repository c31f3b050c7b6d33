//! Sparse pheromone storage, slot-major.
//!
//! The pheromone matrix τ(i, j) spans (batch slot × VM). At paper scale a
//! dense matrix would be 128 × 100 000 doubles per batch, yet ants only
//! ever deposit on the edges they walk — a few thousand per batch — so we
//! store *deviations* from a shared base value sparsely.
//!
//! Deposits live in per-slot lanes (a `Vec` of small VM-sorted vectors)
//! rather than a `HashMap` keyed by (slot, vm): a lane holds at most
//! ants × iterations entries, so a lookup is a binary probe into a tiny
//! contiguous slab instead of a hash + bucket walk per candidate. The
//! lanes also carry a τ^α snapshot ([`PheromoneMatrix::prepare_pow`]),
//! refreshed once per iteration, so tour construction never calls `powf`
//! on the hot path: non-deposited edges share one `base^α` scalar and
//! deposit-touched edges read their cached power.
//!
//! The snapshot is lazy per lane. A colony reads only the lanes of its
//! own slots, while a matrix carried from wave to wave keeps the lanes of
//! the largest wave so far, so an exact sweep powers only the lanes below
//! the colony's live count and marks the rest *stale*, recording the
//! sweep's `(base, scale, α)`. A stale lane's raw values do not change
//! until it is replayed from that record — before a deposit into it, an
//! incremental sweep or a renormalisation — so the replay writes exactly
//! the bits the eager sweep would have written.
//!
//! Evaporation (Eq. 9's `(1-ρ)τ` term) applies uniformly to both the base
//! and every deposit, which we implement with a global scale factor instead
//! of touching every entry.

/// Floor below which pheromone cannot decay, keeping probabilities sane.
const MIN_PHEROMONE: f64 = 1e-12;

/// One slot's deposit lane: parallel arrays sorted by VM id.
#[derive(Debug, Clone, Default)]
struct Lane {
    vms: Vec<u32>,
    /// Raw deposited amounts; the effective deposit is `raw * scale`.
    raw: Vec<f64>,
    /// τ^α snapshot of each entry (valid after [`PheromoneMatrix::prepare_pow`]
    /// unless the lane is stale).
    pow: Vec<f64>,
    /// Set when the last exact sweep skipped this lane: `pow` is owed a
    /// replay of [`PheromoneMatrix::stale_sweep`].
    stale: bool,
}

/// The `(base, scale, α)` one exact τ^α sweep powered its lanes with.
#[derive(Debug, Clone, Copy)]
struct Sweep {
    base: f64,
    scale: f64,
    alpha: f64,
}

impl Sweep {
    /// Effective τ of a lane entry under this sweep: the expression
    /// [`PheromoneMatrix::get`] evaluates.
    #[inline]
    fn tau(&self, raw: f64) -> f64 {
        (self.base + raw * self.scale).max(MIN_PHEROMONE)
    }

    #[inline]
    fn pow_of(&self, tau: f64) -> f64 {
        if self.alpha == 1.0 {
            tau
        } else {
            tau.powf(self.alpha)
        }
    }

    /// Powers every entry of `lane` as this sweep did (or would have):
    /// the exact sweep and a stale lane's replay both run this, so they
    /// write the same bits.
    fn power(&self, lane: &mut Lane) {
        for (p, &raw) in lane.pow.iter_mut().zip(&lane.raw) {
            *p = self.pow_of(self.tau(raw));
        }
        lane.stale = false;
    }
}

/// τ(i, j) over (slot, VM) edges, stored as base + slot-major sparse lanes.
///
/// The τ^α snapshot covers the lanes named live at the last exact sweep
/// ([`Self::prepare_pow`]); the others are stale and are replayed from
/// that sweep, bit for bit, before anything deposits into them, advances
/// them or renormalises them. [`Self::get_pow`] and
/// [`Self::fill_weight_row`] must only read live lanes.
#[derive(Debug, Clone)]
pub struct PheromoneMatrix {
    /// Evaporated initial level shared by all never-deposited edges.
    base: f64,
    /// Global evaporation accumulator applied to deposits.
    scale: f64,
    /// Per-slot deposit lanes.
    lanes: Vec<Lane>,
    /// `base^α` snapshot shared by all never-deposited edges.
    base_pow: f64,
    /// Product of the `(1-ρ)` keep factors applied since the last power
    /// snapshot. Evaporation rescales every edge uniformly, so under a
    /// fixed α the snapshot of a clean entry can be advanced with one
    /// multiply by `keep_accum^α` instead of a fresh `powf` — see
    /// [`Self::prepare_pow_incremental`].
    keep_accum: f64,
    /// α of the last snapshot; an α change invalidates incremental reuse.
    snap_alpha: f64,
    /// Set when evaporation clamps the base at [`MIN_PHEROMONE`]: the
    /// rescale is no longer uniform, so the next incremental snapshot
    /// falls back to the exact sweep.
    force_exact: bool,
    /// The last exact sweep, kept while any lane it skipped is stale.
    stale_sweep: Option<Sweep>,
}

impl PheromoneMatrix {
    /// Creates a matrix where every edge starts at `initial` (τ(0) = C in
    /// Algorithm 2).
    pub fn new(initial: f64) -> Self {
        assert!(initial > 0.0 && initial.is_finite());
        PheromoneMatrix {
            base: initial,
            scale: 1.0,
            lanes: Vec::new(),
            base_pow: f64::NAN,
            keep_accum: 1.0,
            snap_alpha: f64::NAN,
            force_exact: false,
            stale_sweep: None,
        }
    }

    /// Effective τ of a lane entry, replicating the expression the old
    /// `HashMap`-backed `get` evaluated — bit-identical per edge.
    #[inline]
    fn effective(&self, raw: f64) -> f64 {
        (self.base + raw * self.scale).max(MIN_PHEROMONE)
    }

    /// Current pheromone on edge (slot, vm).
    #[inline]
    pub fn get(&self, slot: u32, vm: u32) -> f64 {
        match self.lanes.get(slot as usize) {
            Some(lane) => match lane.vms.binary_search(&vm) {
                Ok(i) => self.effective(lane.raw[i]),
                Err(_) => self.base.max(MIN_PHEROMONE),
            },
            None => self.base.max(MIN_PHEROMONE),
        }
    }

    /// τ(slot, vm)^α from the last [`Self::prepare_pow`] snapshot. Must not
    /// be called before the first snapshot.
    #[inline]
    pub fn get_pow(&self, slot: u32, vm: u32) -> f64 {
        debug_assert!(!self.base_pow.is_nan(), "prepare_pow must run first");
        match self.lanes.get(slot as usize) {
            Some(lane) => {
                debug_assert!(!lane.stale, "lane {slot} is outside the live snapshot");
                match lane.vms.binary_search(&vm) {
                    Ok(i) => lane.pow[i],
                    Err(_) => self.base_pow,
                }
            }
            None => self.base_pow,
        }
    }

    /// Writes one slot's dense Eq. 5 weight row into `out`:
    /// `out[j] = τ(slot, j)^α · η^β(j)`, with `eta_row[j]` holding the
    /// η^β factor. Every product is the same two-factor multiply the
    /// per-candidate expression evaluates, so the row is bit-identical to
    /// computing `get_pow(slot, j) * eta_row[j]` — but the never-deposited
    /// majority of columns becomes one vectorized scalar-times-slice pass,
    /// and the tour hot loop shrinks to a single indexed read. Must be
    /// called after [`Self::prepare_pow`].
    pub fn fill_weight_row(&self, slot: usize, eta_row: &[f64], out: &mut [f64]) {
        debug_assert!(!self.base_pow.is_nan(), "prepare_pow must run first");
        debug_assert_eq!(eta_row.len(), out.len());
        for (o, &e) in out.iter_mut().zip(eta_row) {
            *o = self.base_pow * e;
        }
        if let Some(lane) = self.lanes.get(slot) {
            debug_assert!(!lane.stale, "lane {slot} is outside the live snapshot");
            for (i, &vm) in lane.vms.iter().enumerate() {
                out[vm as usize] = lane.pow[i] * eta_row[vm as usize];
            }
        }
    }

    /// Snapshots τ^α for the base level and every deposit-touched edge of
    /// the `live` lowest lanes — the slots the colony reads. Called once
    /// per colony iteration, before tour construction, so the
    /// per-candidate hot path reads cached powers instead of calling
    /// `powf`. With α = 1 (a common setting) the snapshot is a plain copy.
    ///
    /// Lanes from `live` up are marked stale instead of powered; reading
    /// one is a logic error until something replays it (see the module
    /// docs).
    pub fn prepare_pow(&mut self, alpha: f64, live: usize) {
        let sweep = self.sweep(alpha);
        self.base_pow = sweep.pow_of(self.base.max(MIN_PHEROMONE));
        let live = live.min(self.lanes.len());
        let (powered, skipped) = self.lanes.split_at_mut(live);
        for lane in powered {
            sweep.power(lane);
        }
        for lane in skipped.iter_mut() {
            lane.stale = true;
        }
        self.stale_sweep = (!skipped.is_empty()).then_some(sweep);
        self.keep_accum = 1.0;
        self.snap_alpha = alpha;
        self.force_exact = false;
    }

    /// A τ^α sweep of the matrix as it stands.
    fn sweep(&self, alpha: f64) -> Sweep {
        Sweep {
            base: self.base,
            scale: self.scale,
            alpha,
        }
    }

    /// Replays the last exact sweep into every stale lane.
    fn sync_stale(&mut self) {
        if let Some(sweep) = self.stale_sweep.take() {
            for lane in self.lanes.iter_mut().filter(|lane| lane.stale) {
                sweep.power(lane);
            }
        }
    }

    /// Incrementally advances the τ^α snapshot to the matrix's current
    /// state: evaporation rescales every edge by the same accumulated
    /// `keep` product, so for a fixed α a *clean* entry's power advances
    /// with one multiply by `keep_accum^α` (one `powf` per call, shared by
    /// every lane) instead of a `powf` per touched edge. Entries deposited
    /// on since the last snapshot are marked dirty (`NaN` power) and
    /// recomputed exactly, as is the shared base power.
    ///
    /// The first call, an α change, and a base clamped at the
    /// `MIN_PHEROMONE` floor (where the rescale stops being uniform) all
    /// fall back to the exact [`Self::prepare_pow`] sweep over the `live`
    /// lowest lanes. Otherwise every stale lane is replayed first and then
    /// every lane advances. Clean entries drift from the exact power only
    /// by rounding (`(keep·τ)^α` vs `keep^α·τ^α`), so this feeds the
    /// candidate-list fast path — which makes no bitwise claims — while
    /// the reference-equivalent full-row path stays on the exact sweep.
    pub fn prepare_pow_incremental(&mut self, alpha: f64, live: usize) {
        if self.base_pow.is_nan()
            || self.force_exact
            || !(self.snap_alpha == alpha)
            || !(self.keep_accum > 0.0 && self.keep_accum.is_finite())
        {
            self.prepare_pow(alpha, live);
            return;
        }
        self.sync_stale();
        let now = self.sweep(alpha);
        // The shared base power is one powf — keep it exact so the
        // never-deposited majority of edges never drifts at all.
        self.base_pow = now.pow_of(self.base.max(MIN_PHEROMONE));
        let factor = now.pow_of(self.keep_accum);
        for lane in &mut self.lanes {
            for (p, &raw) in lane.pow.iter_mut().zip(&lane.raw) {
                *p = if p.is_nan() {
                    now.pow_of(now.tau(raw))
                } else {
                    *p * factor
                };
            }
        }
        self.keep_accum = 1.0;
    }

    /// Eq. 9 evaporation: τ ← (1-ρ)τ for every edge.
    pub fn evaporate(&mut self, rho: f64) {
        debug_assert!((0.0..1.0).contains(&rho));
        let keep = 1.0 - rho;
        let scaled = self.base * keep;
        if scaled < MIN_PHEROMONE {
            // The floor breaks the uniform-rescale invariant the
            // incremental snapshot relies on.
            self.force_exact = true;
        }
        self.base = scaled.max(MIN_PHEROMONE);
        self.scale *= keep;
        self.keep_accum *= keep;
        // Renormalize before the scale underflows. Stale lanes replay
        // from their unchanged raw values, so they go first.
        if self.scale < 1e-100 {
            self.sync_stale();
            for lane in &mut self.lanes {
                for raw in &mut lane.raw {
                    *raw *= self.scale;
                }
            }
            self.scale = 1.0;
        }
    }

    /// Eq. 7/10 deposit: τ(slot, vm) ← τ(slot, vm) + amount.
    pub fn deposit(&mut self, slot: u32, vm: u32, amount: f64) {
        debug_assert!(amount >= 0.0 && amount.is_finite());
        let slot = slot as usize;
        if slot >= self.lanes.len() {
            self.lanes.resize_with(slot + 1, Lane::default);
        }
        let lane = &mut self.lanes[slot];
        if lane.stale {
            self.stale_sweep
                .expect("a stale lane has a recorded sweep")
                .power(lane);
        }
        let delta = amount / self.scale;
        match lane.vms.binary_search(&vm) {
            Ok(i) => {
                lane.raw[i] += delta;
                // Dirty-mark for the incremental snapshot; the exact sweep
                // overwrites unconditionally.
                lane.pow[i] = f64::NAN;
            }
            Err(i) => {
                lane.vms.insert(i, vm);
                lane.raw.insert(i, delta);
                lane.pow.insert(i, f64::NAN);
            }
        }
    }

    /// Keeps only each lane's `per_lane` strongest deposits (by raw
    /// amount, ties to the lower VM id); dropped edges revert to the
    /// shared base level. Evaporation rescales base and deposits
    /// uniformly, so old trails never fade *relative to* the base — a
    /// warm-started broker re-seeding wave after wave would otherwise
    /// grow every lane without bound and pay for the dead entries in
    /// every clone, snapshot and lookup. Entries that survive keep their
    /// raw value and τ^α snapshot, so compaction composes with
    /// [`Self::prepare_pow_incremental`] and with a stale lane's replay.
    pub fn compact_top(&mut self, per_lane: usize) {
        for lane in &mut self.lanes {
            if lane.vms.len() <= per_lane {
                continue;
            }
            let mut idx: Vec<usize> = (0..lane.vms.len()).collect();
            idx.sort_by(|&a, &b| {
                lane.raw[b]
                    .total_cmp(&lane.raw[a])
                    .then(lane.vms[a].cmp(&lane.vms[b]))
            });
            idx.truncate(per_lane);
            idx.sort_unstable();
            lane.vms = idx.iter().map(|&i| lane.vms[i]).collect();
            lane.raw = idx.iter().map(|&i| lane.raw[i]).collect();
            lane.pow = idx.iter().map(|&i| lane.pow[i]).collect();
        }
    }

    /// Number of edges carrying explicit deposits (diagnostics).
    pub fn deposited_edges(&self) -> usize {
        self.lanes.iter().map(|lane| lane.vms.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A live count past every lane: the eager snapshot.
    const ALL: usize = usize::MAX;

    #[test]
    fn starts_uniform() {
        let m = PheromoneMatrix::new(2.0);
        assert_eq!(m.get(0, 0), 2.0);
        assert_eq!(m.get(99, 12345), 2.0);
        assert_eq!(m.deposited_edges(), 0);
    }

    #[test]
    fn deposit_then_read() {
        let mut m = PheromoneMatrix::new(1.0);
        m.deposit(3, 7, 0.5);
        assert!((m.get(3, 7) - 1.5).abs() < 1e-12);
        assert_eq!(m.get(3, 8), 1.0);
        assert_eq!(m.deposited_edges(), 1);
    }

    #[test]
    fn evaporation_applies_to_all_edges() {
        let mut m = PheromoneMatrix::new(1.0);
        m.deposit(0, 0, 1.0); // edge at 2.0
        m.evaporate(0.4);
        assert!((m.get(0, 0) - 1.2).abs() < 1e-12);
        assert!((m.get(5, 5) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn eq9_shape_local_update() {
        // τ' = (1-ρ)τ + Δτ : evaporate then deposit.
        let mut m = PheromoneMatrix::new(1.0);
        m.evaporate(0.4);
        m.deposit(1, 2, 0.25);
        assert!((m.get(1, 2) - 0.85).abs() < 1e-12);
    }

    #[test]
    fn pheromone_never_hits_zero() {
        let mut m = PheromoneMatrix::new(1.0);
        for _ in 0..10_000 {
            m.evaporate(0.9);
        }
        assert!(m.get(0, 0) >= MIN_PHEROMONE);
        // Deposits after heavy evaporation still register.
        m.deposit(0, 0, 1.0);
        assert!(m.get(0, 0) >= 1.0);
    }

    #[test]
    fn repeated_deposits_accumulate() {
        let mut m = PheromoneMatrix::new(1.0);
        m.deposit(0, 1, 0.1);
        m.deposit(0, 1, 0.1);
        assert!((m.get(0, 1) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn pow_snapshot_matches_powf_of_get() {
        let mut m = PheromoneMatrix::new(1.0);
        m.deposit(0, 3, 0.7);
        m.deposit(2, 5, 0.2);
        m.evaporate(0.4);
        m.deposit(0, 3, 0.1);
        for alpha in [0.01, 0.5, 2.0] {
            m.prepare_pow(alpha, ALL);
            for (slot, vm) in [(0u32, 3u32), (0, 4), (2, 5), (7, 7)] {
                assert_eq!(
                    m.get_pow(slot, vm).to_bits(),
                    m.get(slot, vm).powf(alpha).to_bits(),
                    "α={alpha} edge ({slot},{vm})"
                );
            }
        }
    }

    #[test]
    fn pow_snapshot_alpha_one_is_identity() {
        let mut m = PheromoneMatrix::new(1.3);
        m.deposit(1, 1, 0.9);
        m.prepare_pow(1.0, ALL);
        assert_eq!(m.get_pow(1, 1).to_bits(), m.get(1, 1).to_bits());
        assert_eq!(m.get_pow(1, 2).to_bits(), m.get(1, 2).to_bits());
    }

    #[test]
    fn weight_row_matches_per_candidate_products_bitwise() {
        let mut m = PheromoneMatrix::new(1.0);
        m.deposit(0, 3, 0.7);
        m.deposit(2, 5, 0.2);
        m.evaporate(0.4);
        m.deposit(3, 7, 0.1);
        m.prepare_pow(0.01, ALL);
        let eta_row: Vec<f64> = (0..8).map(|j| 1.0 / (1.0 + j as f64)).collect();
        let mut out = vec![0.0; 8];
        for slot in 0..4u32 {
            m.fill_weight_row(slot as usize, &eta_row, &mut out);
            for vm in 0..8u32 {
                let expected = m.get_pow(slot, vm) * eta_row[vm as usize];
                assert_eq!(
                    out[vm as usize].to_bits(),
                    expected.to_bits(),
                    "edge ({slot},{vm})"
                );
            }
        }
    }

    #[test]
    fn incremental_first_call_is_the_exact_sweep() {
        let mut exact = PheromoneMatrix::new(1.0);
        let mut inc = PheromoneMatrix::new(1.0);
        for m in [&mut exact, &mut inc] {
            m.deposit(0, 3, 0.7);
            m.evaporate(0.4);
        }
        exact.prepare_pow(0.01, ALL);
        inc.prepare_pow_incremental(0.01, ALL);
        for (slot, vm) in [(0u32, 3u32), (0, 4), (5, 5)] {
            assert_eq!(
                inc.get_pow(slot, vm).to_bits(),
                exact.get_pow(slot, vm).to_bits()
            );
        }
    }

    #[test]
    fn incremental_snapshot_tracks_exact_within_rounding() {
        let alpha = 0.01;
        let mut exact = PheromoneMatrix::new(1.0);
        let mut inc = PheromoneMatrix::new(1.0);
        exact.prepare_pow(alpha, ALL);
        inc.prepare_pow_incremental(alpha, ALL);
        for round in 0..64u32 {
            for m in [&mut exact, &mut inc] {
                m.evaporate(0.4);
                m.deposit(round % 4, round % 7, 0.3);
            }
            exact.prepare_pow(alpha, ALL);
            inc.prepare_pow_incremental(alpha, ALL);
            for slot in 0..5u32 {
                for vm in 0..8u32 {
                    let e = exact.get_pow(slot, vm);
                    let i = inc.get_pow(slot, vm);
                    assert!(
                        (i - e).abs() <= 1e-12 * e.abs(),
                        "round {round} edge ({slot},{vm}): incremental {i} vs exact {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_recomputes_dirty_entries_exactly() {
        let alpha = 0.5;
        let mut m = PheromoneMatrix::new(1.0);
        m.prepare_pow(alpha, ALL);
        m.evaporate(0.4);
        m.deposit(1, 2, 0.25); // dirty: deposited since the snapshot
        m.prepare_pow_incremental(alpha, ALL);
        // A dirty entry and the base come out of the exact powf, bitwise.
        assert_eq!(m.get_pow(1, 2).to_bits(), m.get(1, 2).powf(alpha).to_bits());
        assert_eq!(m.get_pow(9, 9).to_bits(), m.get(9, 9).powf(alpha).to_bits());
    }

    #[test]
    fn incremental_falls_back_when_the_floor_clamps() {
        let alpha = 0.7;
        let mut m = PheromoneMatrix::new(1.0);
        m.deposit(0, 1, 5.0);
        m.prepare_pow_incremental(alpha, ALL);
        // Evaporate until the base hits MIN_PHEROMONE: uniform rescale no
        // longer holds, so the next incremental call must be exact.
        for _ in 0..200 {
            m.evaporate(0.9);
        }
        m.prepare_pow_incremental(alpha, ALL);
        for (slot, vm) in [(0u32, 1u32), (0, 2), (3, 3)] {
            assert_eq!(
                m.get_pow(slot, vm).to_bits(),
                m.get(slot, vm).powf(alpha).to_bits(),
                "post-clamp snapshot must be the exact sweep"
            );
        }
    }

    #[test]
    fn incremental_handles_alpha_changes() {
        let mut m = PheromoneMatrix::new(1.0);
        m.deposit(0, 1, 0.5);
        m.prepare_pow_incremental(0.01, ALL);
        m.evaporate(0.4);
        m.prepare_pow_incremental(2.0, ALL); // α changed → exact sweep
        assert_eq!(m.get_pow(0, 1).to_bits(), m.get(0, 1).powf(2.0).to_bits());
    }

    #[test]
    fn lazy_sweep_skips_lanes_past_live_and_replays_them_on_deposit() {
        let alpha = 0.5;
        let mut eager = PheromoneMatrix::new(1.0);
        let mut lazy = PheromoneMatrix::new(1.0);
        for m in [&mut eager, &mut lazy] {
            m.deposit(0, 1, 0.7);
            m.deposit(3, 2, 0.4);
            m.evaporate(0.4);
        }
        eager.prepare_pow(alpha, ALL);
        lazy.prepare_pow(alpha, 2);
        assert!(lazy.lanes[3].stale && !lazy.lanes[0].stale);
        assert_eq!(lazy.get_pow(0, 1).to_bits(), eager.get_pow(0, 1).to_bits());
        // Evaporation moves base and scale; the replay uses the sweep's.
        for m in [&mut eager, &mut lazy] {
            m.evaporate(0.4);
            m.deposit(3, 5, 0.1);
        }
        assert!(!lazy.lanes[3].stale);
        assert_eq!(
            lazy.lanes[3].pow[0].to_bits(),
            eager.lanes[3].pow[0].to_bits()
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside the live snapshot")]
    fn reading_a_stale_lane_is_caught() {
        let mut m = PheromoneMatrix::new(1.0);
        m.deposit(4, 0, 0.5);
        m.prepare_pow(0.5, 4);
        m.get_pow(4, 0);
    }

    #[test]
    fn lanes_stay_sorted_under_out_of_order_deposits() {
        let mut m = PheromoneMatrix::new(1.0);
        for vm in [9u32, 1, 5, 3, 7, 1, 9] {
            m.deposit(0, vm, 0.1);
        }
        assert_eq!(m.deposited_edges(), 5);
        assert!((m.get(0, 1) - 1.2).abs() < 1e-12);
        assert!((m.get(0, 9) - 1.2).abs() < 1e-12);
        assert_eq!(m.get(0, 2), 1.0);
    }
}
