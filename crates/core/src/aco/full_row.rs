//! The full-row Eq. 5 pick: one fused, allocation-free kernel over a
//! slot's dense weight row.
//!
//! [`super::reference`] materialises the non-tabu VMs and their weights
//! into two vectors, then draws from them: the ACS argmax (`max_by`, so
//! the *last* maximum wins) with probability q0, else a linear roulette
//! over the running sum, else — when that sum is not a positive finite
//! number — a uniform index into the list. The functions here make the
//! same draws in the same order over the dense row itself, with tabu
//! entries masked in place:
//!
//! - [`mass`] sums the non-tabu weights in index order. A tabu entry adds
//!   `+0.0`, which leaves every partial sum's bits unchanged, so the total
//!   is the materialised list's total bit for bit;
//! - [`spin_pick`] subtracts the same weights from the spin and subtracts
//!   `0.0` at tabu entries. It returns only at a non-tabu index, so a spin
//!   that is already ≤ 0 (exactly 0 on a leading tabu entry) still lands
//!   on the next free VM, as the materialised scan does;
//! - [`argmax_pick`] and [`nth_free`] are the other two draws.
//!
//! Non-finite weights count as 0, like the reference's clip. Finite
//! weights must not be negative (Eq. 5 products never are).

use rand::Rng;

/// An ant's tabu set as generation stamps: VM `j` is tabu iff
/// `stamps[j] == gen`, so clearing the set is a counter bump.
#[derive(Debug, Clone, Copy)]
pub struct Tabu<'a> {
    /// One stamp per VM of the row.
    pub stamps: &'a [u32],
    /// The current ant's generation.
    pub gen: u32,
}

impl<'a> Tabu<'a> {
    /// Per-VM "free" flags, in row order.
    #[inline]
    fn free(self) -> impl Iterator<Item = bool> + 'a {
        self.stamps.iter().map(move |&s| s != self.gen)
    }
}

/// A weight as the reference's roulette sees it: non-finite clips to 0.
#[inline]
fn clip(w: f64) -> f64 {
    if w.is_finite() {
        w
    } else {
        0.0
    }
}

/// One Eq. 5 pick over `row`, the slot's weight for every VM: the ACS
/// argmax with probability `q0` (one uniform draw, made only when
/// `q0 > 0`), else the roulette, else a uniform free VM. Returns the VM
/// index the materialised reference picks from the same RNG state.
///
/// Panics if every VM is tabu.
#[inline]
pub fn pick<R: Rng>(rng: &mut R, row: &[f64], tabu: Tabu<'_>, q0: f64) -> usize {
    debug_assert_eq!(row.len(), tabu.stamps.len());
    if q0 > 0.0 && rng.gen_range(0.0..1.0) < q0 {
        return argmax_pick(row, tabu);
    }
    let (total, free) = mass(row, tabu);
    debug_assert!(free > 0, "tabu cannot exhaust all VMs");
    if total.is_finite() && total > 0.0 {
        spin_pick(row, tabu, rng.gen_range(0.0..total))
    } else {
        nth_free(tabu, rng.gen_range(0..free))
    }
}

/// The in-order sum of the non-tabu (clipped) weights, and the number of
/// non-tabu VMs. Branch-free: a tabu entry adds `+0.0`.
#[inline]
pub fn mass(row: &[f64], tabu: Tabu<'_>) -> (f64, usize) {
    let mut total = 0.0;
    let mut free = 0;
    for (&w, ok) in row.iter().zip(tabu.free()) {
        total += if ok { clip(w) } else { 0.0 };
        free += ok as usize;
    }
    (total, free)
}

/// The roulette: the first non-tabu index at which `spin` minus the
/// running sum of weights reaches ≤ 0, or the last non-tabu index when
/// rounding leaves some spin over.
#[inline]
pub fn spin_pick(row: &[f64], tabu: Tabu<'_>, mut spin: f64) -> usize {
    for (j, (&w, ok)) in row.iter().zip(tabu.free()).enumerate() {
        spin -= if ok { clip(w) } else { 0.0 };
        if ok && spin <= 0.0 {
            return j;
        }
    }
    last_free(tabu)
}

/// The ACS exploitation rule: the non-tabu index of the largest
/// (clipped) weight, the last one on ties — what `max_by` over the
/// materialised list returns.
#[inline]
pub fn argmax_pick(row: &[f64], tabu: Tabu<'_>) -> usize {
    let mut best: Option<(usize, f64)> = None;
    for (j, (&w, ok)) in row.iter().zip(tabu.free()).enumerate() {
        let w = clip(w);
        if ok && best.is_none_or(|(_, b)| w.total_cmp(&b).is_ge()) {
            best = Some((j, w));
        }
    }
    best.expect("tabu cannot exhaust all VMs").0
}

/// The index of the `n`-th (0-based) non-tabu VM.
#[inline]
pub fn nth_free(tabu: Tabu<'_>, n: usize) -> usize {
    tabu.free()
        .enumerate()
        .filter(|&(_, ok)| ok)
        .nth(n)
        .map(|(j, _)| j)
        .expect("n is below the free count")
}

fn last_free(tabu: Tabu<'_>) -> usize {
    tabu.stamps
        .iter()
        .rposition(|&s| s != tabu.gen)
        .expect("tabu cannot exhaust all VMs")
}
