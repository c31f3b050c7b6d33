//! Warm state carried between waves by the streaming broker.
//!
//! A one-shot scheduler pays from-scratch construction on every call; a
//! long-running broker replanning at wave boundaries should not. This
//! module defines the per-scheduler-family warm state the stream driver
//! threads between waves, and the [`crate::scheduler::Scheduler`] trait's
//! `schedule_warm` entry point consumes it:
//!
//! * **ACO** keeps the pheromone matrix of the previous wave's last
//!   colony — aged by one evaporation, its slot-position preferences
//!   ("which VMs are good") seed every colony of the next wave.
//! * **Population families** (GA, PSO, cuckoo-SOS, GSA) seed one
//!   chromosome, particle, organism or agent from the surviving
//!   incumbent plan, so the population starts at the previous optimum
//!   instead of uniform noise.
//! * **Greedy / baseline kinds** persist their own cursor or load vector
//!   inside the scheduler instance (e.g. [`crate::round_robin::RoundRobin`]'s
//!   cursor, [`crate::baselines::LeastConnection`]'s load), so for them
//!   warm state is simply "keep the instance alive"; the default
//!   `schedule_warm` records the incumbent and delegates.
//!
//! The warm contract: the *fleet* must be unchanged between waves (the
//! incumbent's VM indices and the pheromone columns refer to it); the
//! cloudlet side changes freely. Warm plans are not claimed equal to
//! cold plans — each mode is separately deterministic per seed at any
//! thread count.

use crate::aco::PheromoneMatrix;
use crate::assignment::Assignment;

/// Warm state one scheduler instance carries across wave boundaries.
#[derive(Default)]
pub struct WarmState {
    /// ACO pheromone trails captured from the previous wave.
    pub pheromone: Option<PheromoneMatrix>,
    /// The previous wave's plan as raw VM indices; the population families
    /// map position `i` of the next wave onto `incumbent[i % len]`
    /// (wraparound), so a differently-sized wave still inherits the
    /// incumbent's VM mix.
    pub incumbent: Option<Vec<u32>>,
}

impl WarmState {
    /// Empty warm state — the first wave runs cold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `plan` as the incumbent for the next wave.
    pub fn note_plan(&mut self, plan: &Assignment) {
        self.incumbent = Some(plan.as_slice().iter().map(|vm| vm.0).collect());
    }

    /// True when no wave has been recorded yet.
    pub fn is_cold(&self) -> bool {
        self.pheromone.is_none() && self.incumbent.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcloud::ids::VmId;

    #[test]
    fn note_plan_records_raw_indices() {
        let mut warm = WarmState::new();
        assert!(warm.is_cold());
        warm.note_plan(&Assignment::new(vec![VmId(3), VmId(0), VmId(7)]));
        assert!(!warm.is_cold());
        assert_eq!(warm.incumbent.as_deref(), Some(&[3u32, 0, 7][..]));
    }
}
