//! The full-row Eq. 5 pick for a group of ants: one lockstep pass over a
//! slot's dense weight row serves every lane of the group.
//!
//! [`super::reference`] materialises the non-tabu VMs and their weights
//! into two vectors, then draws from them: the ACS argmax (`max_by`, so
//! the *last* maximum wins) with probability q0, else a linear roulette
//! over the running sum, else — when that sum is not a positive finite
//! number — a uniform index into the list. Every ant of a colony
//! iteration reads the same row at a given slot; only its tabu set and
//! its RNG differ. The functions here build up to `W` ants (lanes) at
//! once over the dense row itself and make, per lane, the reference's
//! draws in the reference's order:
//!
//! - a group's tabu sets are one lane bitmask per VM: bit `l` of
//!   `tabu[j]` is set iff VM `j` is tabu for lane `l`, so clearing every
//!   lane's set is one `fill(0)` per group. A 256-entry table turns a
//!   mask into per-lane keep patterns, so masking a weight is one AND;
//! - [`masses`] sums each lane's non-tabu weights in index order, one
//!   independent chain per lane over a single read of the row. A tabu
//!   entry adds `+0.0`, which leaves every partial sum's bits unchanged,
//!   so each total is the materialised list's total bit for bit;
//! - [`spin_picks`] subtracts the same weights from each lane's spin and
//!   `0.0` at that lane's tabu entries. A lane lands only at one of its
//!   non-tabu indices, so a spin that is already ≤ 0 (exactly 0 on a
//!   leading tabu entry) still lands on the next free VM, as the
//!   materialised scan does. The pass advances every lane's spin
//!   branch-free over chunks of `SPIN_CHUNK` (8) VMs; only a lane whose
//!   spin ends a chunk ≤ 0 replays that chunk to find its index, and the
//!   pass stops once every lane has landed;
//! - [`argmax_picks`] and [`nth_free`] are the other two draws, and
//!   [`pick_group`] is the whole per-slot draw.
//!
//! Rows are pre-clipped: the kernel reads every weight as given, so the
//! caller applies [`clip`] (non-finite → 0, the reference's clip) once
//! when it fills the row. Weights must then be finite and not negative
//! (Eq. 5 products never are).

use rand::Rng;

/// VMs the spin pass scans branch-free before it checks whether every
/// lane has landed.
const SPIN_CHUNK: usize = 8;

/// A weight as the reference's roulette sees it: non-finite clips to 0.
#[inline]
pub fn clip(w: f64) -> f64 {
    if w.is_finite() {
        w
    } else {
        0.0
    }
}

/// `KEEP[m][l]` is the bit pattern that keeps a weight (all ones) when
/// lane `l` is free in lane bitmask `m`, and zeroes it to `+0.0` (all
/// zeros) when the lane is tabu. Row passes mask with one table load per
/// VM instead of unpacking the bits lane by lane.
static KEEP: [[u64; 8]; 256] = {
    let mut table = [[0; 8]; 256];
    let mut m = 0;
    while m < 256 {
        let mut l = 0;
        while l < 8 {
            if m >> l & 1 == 0 {
                table[m][l] = u64::MAX;
            }
            l += 1;
        }
        m += 1;
    }
    table
};

/// `w` where `keep` is all ones, `+0.0` where it is all zeros.
#[inline]
fn masked(w: f64, keep: u64) -> f64 {
    f64::from_bits(w.to_bits() & keep)
}

/// Whether `mask` leaves the VM free for `lane`.
#[inline]
fn is_free(mask: u8, lane: usize) -> bool {
    mask >> lane & 1 == 0
}

/// The lanes set in `lanes`, lowest first.
fn lanes_of(mut lanes: u8) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let l = lanes.trailing_zeros() as usize;
        lanes &= lanes.wrapping_sub(1);
        (l < 8).then_some(l)
    })
}

/// One Eq. 5 pick per lane over `row`, the slot's pre-clipped weight for
/// every VM, with lane `l` drawing from `rngs[l]` and tabu by bit `l` of
/// `tabu`. Each lane makes the reference's draws in its order: the ACS
/// argmax with probability `q0` (one uniform draw, made only when
/// `q0 > 0`), else the roulette, else a uniform free VM. Returns, for
/// each of the `rngs.len()` lanes, the VM index the materialised
/// reference picks from that lane's RNG state; later entries are
/// unspecified.
///
/// Panics unless `1 ≤ rngs.len() ≤ W ≤ 8`, or if every VM is tabu for a
/// lane.
#[inline]
pub fn pick_group<const W: usize, R: Rng>(
    rngs: &mut [R],
    row: &[f64],
    tabu: &[u8],
    q0: f64,
) -> [usize; W] {
    let n = rngs.len();
    assert!((1..=W).contains(&n) && W <= 8, "1 ≤ lanes ≤ W ≤ 8");
    debug_assert_eq!(row.len(), tabu.len());
    let mut exploit = 0u8;
    if q0 > 0.0 {
        for (l, rng) in rngs.iter_mut().enumerate() {
            if rng.gen_range(0.0..1.0) < q0 {
                exploit |= 1 << l;
            }
        }
    }
    let mut picks = if exploit != 0 {
        argmax_picks::<W>(row, tabu, exploit)
    } else {
        [usize::MAX; W]
    };
    let roulette = (u8::MAX >> (8 - n)) & !exploit;
    if roulette == 0 {
        return picks;
    }
    let totals = masses::<W>(row, tabu);
    let mut spins = [0.0; W];
    let mut spinning = 0u8;
    for l in lanes_of(roulette) {
        let total = totals[l];
        if total.is_finite() && total > 0.0 {
            spins[l] = rngs[l].gen_range(0.0..total);
            spinning |= 1 << l;
        } else {
            let free = tabu.iter().filter(|&&m| is_free(m, l)).count();
            assert!(free > 0, "tabu cannot exhaust all VMs");
            picks[l] = nth_free(tabu, l, rngs[l].gen_range(0..free));
        }
    }
    if spinning != 0 {
        let landed = spin_picks::<W>(row, tabu, spins, spinning);
        for l in lanes_of(spinning) {
            picks[l] = landed[l];
        }
    }
    picks
}

/// Each lane's in-order sum of its non-tabu weights: `W` independent
/// chains over one read of the row. Branch-free: a tabu entry adds
/// `+0.0`.
#[inline]
pub fn masses<const W: usize>(row: &[f64], tabu: &[u8]) -> [f64; W] {
    let mut totals = [0.0; W];
    for (&w, &m) in row.iter().zip(tabu) {
        let keep = &KEEP[usize::from(m)];
        for (total, &keep) in totals.iter_mut().zip(keep) {
            *total += masked(w, keep);
        }
    }
    totals
}

/// The roulette for every lane in `lanes`: the first index free for that
/// lane at which its spin minus its running sum of weights reaches ≤ 0,
/// or its last free index when rounding leaves some spin over. Entries of
/// lanes outside `lanes` are unspecified.
///
/// A spin never grows (weights are not negative) and changes only at the
/// lane's free entries, so a lane lands inside a chunk only if its spin
/// is ≤ 0 at the chunk's end. Each chunk is one branch-free pass that
/// advances every lane's spin; only a lane that ends the chunk at ≤ 0
/// replays the chunk from its saved spin, subtraction for subtraction,
/// to find the index it landed on.
#[inline]
pub fn spin_picks<const W: usize>(
    row: &[f64],
    tabu: &[u8],
    mut spins: [f64; W],
    lanes: u8,
) -> [usize; W] {
    let mut picks = [usize::MAX; W];
    let mut open = lanes;
    for (chunk, (ws, ms)) in row
        .chunks(SPIN_CHUNK)
        .zip(tabu.chunks(SPIN_CHUNK))
        .enumerate()
    {
        let before = spins;
        for (&w, &m) in ws.iter().zip(ms) {
            let keep = &KEEP[usize::from(m)];
            for (spin, &keep) in spins.iter_mut().zip(keep) {
                *spin -= masked(w, keep);
            }
        }
        let crossed = spins
            .iter()
            .enumerate()
            .fold(0u8, |acc, (l, &spin)| acc | u8::from(spin <= 0.0) << l);
        for l in lanes_of(crossed & open) {
            if let Some(i) = land(ws, ms, l, before[l]) {
                picks[l] = chunk * SPIN_CHUNK + i;
                open &= !(1 << l);
            }
        }
        if open == 0 {
            return picks;
        }
    }
    for l in lanes_of(open) {
        picks[l] = tabu
            .iter()
            .rposition(|&m| is_free(m, l))
            .expect("tabu cannot exhaust all VMs");
    }
    picks
}

/// One lane's scan of a chunk from `spin`: the first free index at which
/// the spin reaches ≤ 0, if any.
#[inline]
fn land(ws: &[f64], ms: &[u8], lane: usize, mut spin: f64) -> Option<usize> {
    for (i, (&w, &m)) in ws.iter().zip(ms).enumerate() {
        if is_free(m, lane) {
            spin -= w;
            if spin <= 0.0 {
                return Some(i);
            }
        }
    }
    None
}

/// The ACS exploitation rule for every lane in `lanes`: the lane's
/// non-tabu index of the largest weight, the last one on ties — what
/// `max_by` over the materialised list returns. Entries of lanes outside
/// `lanes` are unspecified.
#[inline]
pub fn argmax_picks<const W: usize>(row: &[f64], tabu: &[u8], lanes: u8) -> [usize; W] {
    let mut best = [(usize::MAX, f64::NEG_INFINITY); W];
    for (j, (&w, &m)) in row.iter().zip(tabu).enumerate() {
        for (l, best) in best.iter_mut().enumerate() {
            if is_free(m, l) && w.total_cmp(&best.1).is_ge() {
                *best = (j, w);
            }
        }
    }
    let picks = best.map(|(j, _)| j);
    for l in lanes_of(lanes) {
        assert!(picks[l] != usize::MAX, "tabu cannot exhaust all VMs");
    }
    picks
}

/// The index of `lane`'s `n`-th (0-based) non-tabu VM.
#[inline]
pub fn nth_free(tabu: &[u8], lane: usize, n: usize) -> usize {
    tabu.iter()
        .enumerate()
        .filter(|&(_, &m)| is_free(m, lane))
        .nth(n)
        .map(|(j, _)| j)
        .expect("n is below the free count")
}
