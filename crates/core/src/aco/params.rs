//! ACO tuning parameters (the paper's Table II).

/// Parameters of the ant colony (Table II plus implementation knobs).
#[derive(Debug, Clone, PartialEq)]
pub struct AcoParams {
    /// Number of ants per iteration (Table II: 50).
    pub ants: usize,
    /// Pheromone weight α in Eq. 5 (Table II: 0.01).
    pub alpha: f64,
    /// Heuristic weight β in Eq. 5 (Table II: 0.99).
    pub beta: f64,
    /// Pheromone decay ρ in Eq. 9 (Table II: 0.4).
    pub rho: f64,
    /// Deposit constant Q in Eqs. 7/11 (Table II: 100).
    pub q: f64,
    /// Initial pheromone τ(0) on every edge (Algorithm 2's constant C).
    pub initial_pheromone: f64,
    /// Construction/update iterations per batch (Algorithm 2's loop).
    pub iterations: usize,
    /// Cloudlets scheduled per colony run. Each ant's tabu list forbids
    /// revisiting a VM within a batch (the paper's constraint-satisfaction
    /// rule), so a batch can never exceed the VM count; it is clamped.
    pub batch_size: usize,
    /// Candidate-list size: how many VMs each ant examines per choice
    /// (a standard ACO acceleration). `None` — the paper-profile default —
    /// examines every VM; [`AcoParams::for_scale`] defaults to
    /// [`AcoParams::DEFAULT_CANDIDATES`]. The value picks the sampling
    /// regime: k ≥ #VMs runs the full-row linear roulette, k < #VMs the
    /// top-η candidate blocks with prefix-sum draws.
    pub candidates: Option<usize>,
    /// Ant Colony System exploitation probability: with probability `q0`
    /// an ant deterministically takes the best-weighted VM instead of
    /// spinning the Eq. 5 roulette. `0` (the paper's plain Ant System)
    /// disables it; Dorigo's ACS uses 0.9. Exposed as `--sched-params q0=…`.
    pub q0: f64,
    /// Cap on the batch as a fraction of the VM fleet. A batch equal to
    /// the fleet size degenerates into a permutation (the tabu rule forces
    /// every VM to be used exactly once, erasing the colony's preference
    /// for fast VMs), so batches are clamped to
    /// `ceil(max_vm_fraction × #VMs)`.
    pub max_vm_fraction: f64,
}

impl AcoParams {
    /// Exactly Table II, with the implementation knobs at study defaults.
    /// Ants examine the full weight row (no candidate restriction), so
    /// plans match the pre-candidate-list study bit for bit.
    /// Candidate lists cost 5–53 % makespan on heterogeneous fleets at
    /// figure scale, so they default on only in [`Self::for_scale`].
    pub fn paper() -> Self {
        AcoParams {
            ants: 50,
            alpha: 0.01,
            beta: 0.99,
            rho: 0.4,
            q: 100.0,
            initial_pheromone: 1.0,
            iterations: 8,
            batch_size: 128,
            candidates: None,
            q0: 0.0,
            max_vm_fraction: 0.5,
        }
    }

    /// Default candidate-list size of the scale profile (and of the
    /// schedbench quality gate).
    pub const DEFAULT_CANDIDATES: usize = 32;

    /// The scale profile: top-η candidate lists
    /// ([`Self::DEFAULT_CANDIDATES`] per slot) at any size — the O(k)
    /// tour loop is what makes 10⁵-VM fleets tractable — plus reduced
    /// ants/iterations above [`Self::SCALE_CUTOVER`] cloudlets, where
    /// per-cloudlet optimization effort must also shrink for the batch
    /// sweep to stay inside a wall-clock budget at 10⁶-cloudlet scale.
    pub fn for_scale(cloudlets: usize) -> Self {
        let base = AcoParams {
            candidates: Some(Self::DEFAULT_CANDIDATES),
            ..Self::paper()
        };
        if cloudlets > Self::SCALE_CUTOVER {
            AcoParams {
                ants: 12,
                iterations: 4,
                ..base
            }
        } else {
            base
        }
    }

    /// Cloudlet count above which [`Self::for_scale`] switches to the
    /// reduced-effort profile.
    pub const SCALE_CUTOVER: usize = 250_000;

    /// Ant Colony System flavor: strong exploitation (q0 = 0.9).
    pub fn acs() -> Self {
        AcoParams {
            q0: 0.9,
            ..Self::paper()
        }
    }

    /// A cheaper configuration for very large sweeps; same search
    /// structure, fewer ants and iterations.
    pub fn fast() -> Self {
        AcoParams {
            ants: 12,
            iterations: 4,
            candidates: Some(24),
            ..Self::paper()
        }
    }

    /// Validates parameter sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.ants == 0 {
            return Err("ants must be at least 1".into());
        }
        if self.iterations == 0 {
            return Err("iterations must be at least 1".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be at least 1".into());
        }
        if !(self.rho > 0.0 && self.rho < 1.0) {
            return Err(format!("rho must be in (0,1), got {}", self.rho));
        }
        for (name, v) in [
            ("alpha", self.alpha),
            ("beta", self.beta),
            ("q", self.q),
            ("initial_pheromone", self.initial_pheromone),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        if self.candidates == Some(0) {
            return Err("candidate list cannot be empty".into());
        }
        if !(0.0..=1.0).contains(&self.q0) {
            return Err(format!("q0 must be in [0,1], got {}", self.q0));
        }
        if !(self.max_vm_fraction > 0.0 && self.max_vm_fraction <= 1.0) {
            return Err(format!(
                "max_vm_fraction must be in (0,1], got {}",
                self.max_vm_fraction
            ));
        }
        Ok(())
    }
}

impl Default for AcoParams {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_match_table_ii() {
        let p = AcoParams::paper();
        assert_eq!(p.ants, 50);
        assert_eq!(p.alpha, 0.01);
        assert_eq!(p.beta, 0.99);
        assert_eq!(p.rho, 0.4);
        assert_eq!(p.q, 100.0);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn fast_preset_is_valid_and_cheaper() {
        let f = AcoParams::fast();
        assert!(f.validate().is_ok());
        assert!(f.ants < AcoParams::paper().ants);
        assert!(f.iterations < AcoParams::paper().iterations);
    }

    #[test]
    fn validation_rejects_degenerate_values() {
        assert!(AcoParams {
            ants: 0,
            ..AcoParams::paper()
        }
        .validate()
        .is_err());
        assert!(AcoParams {
            rho: 1.0,
            ..AcoParams::paper()
        }
        .validate()
        .is_err());
        assert!(AcoParams {
            beta: -1.0,
            ..AcoParams::paper()
        }
        .validate()
        .is_err());
        assert!(AcoParams {
            candidates: Some(0),
            ..AcoParams::paper()
        }
        .validate()
        .is_err());
        assert!(AcoParams {
            max_vm_fraction: 0.0,
            ..AcoParams::paper()
        }
        .validate()
        .is_err());
        assert!(AcoParams {
            max_vm_fraction: 1.1,
            ..AcoParams::paper()
        }
        .validate()
        .is_err());
        assert!(AcoParams {
            q0: 1.5,
            ..AcoParams::paper()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn paper_profile_is_unrestricted() {
        assert_eq!(AcoParams::paper().candidates, None);
        assert_eq!(AcoParams::default(), AcoParams::paper());
    }

    #[test]
    fn for_scale_reduces_effort_above_cutover() {
        let small = AcoParams::for_scale(10_000);
        assert_eq!(small.candidates, Some(AcoParams::DEFAULT_CANDIDATES));
        assert_eq!(small.ants, AcoParams::paper().ants);
        let big = AcoParams::for_scale(1_000_000);
        assert_eq!(big.candidates, Some(AcoParams::DEFAULT_CANDIDATES));
        assert!(big.ants < AcoParams::paper().ants);
        assert!(big.iterations < AcoParams::paper().iterations);
        assert!(big.validate().is_ok());
    }

    #[test]
    fn acs_preset_exploits() {
        let acs = AcoParams::acs();
        assert_eq!(acs.q0, 0.9);
        assert!(acs.validate().is_ok());
        assert_eq!(AcoParams::paper().q0, 0.0, "plain AS by default");
    }
}
