//! Scheduler output: the cloudlet→VM binding.

use simcloud::ids::VmId;

use crate::eval::EvalCache;
use crate::problem::SchedulingProblem;

/// A complete cloudlet→VM map, in cloudlet-id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    map: Vec<VmId>,
}

impl Assignment {
    /// Wraps a raw map.
    pub fn new(map: Vec<VmId>) -> Self {
        Assignment { map }
    }

    /// The VM bound to cloudlet `c`.
    #[inline]
    pub fn vm_for(&self, c: usize) -> VmId {
        self.map[c]
    }

    /// Number of cloudlets covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no cloudlets are covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Borrows the raw map.
    pub fn as_slice(&self) -> &[VmId] {
        &self.map
    }

    /// Consumes into the raw map (what the simulator's broker takes).
    pub fn into_vec(self) -> Vec<VmId> {
        self.map
    }

    /// Checks the assignment covers exactly `problem`'s cloudlets and
    /// references only existing VMs.
    pub fn validate(&self, problem: &SchedulingProblem) -> Result<(), String> {
        if self.map.len() != problem.cloudlet_count() {
            return Err(format!(
                "assignment covers {} cloudlets, problem has {}",
                self.map.len(),
                problem.cloudlet_count()
            ));
        }
        if let Some((c, vm)) = self
            .map
            .iter()
            .enumerate()
            .find(|(_, vm)| vm.index() >= problem.vm_count())
        {
            return Err(format!("cloudlet {c} assigned to unknown VM {vm}"));
        }
        Ok(())
    }

    /// How many cloudlets each VM received.
    pub fn counts_per_vm(&self, vm_count: usize) -> Vec<usize> {
        let mut counts = vec![0usize; vm_count];
        for vm in &self.map {
            counts[vm.index()] += 1;
        }
        counts
    }

    /// Estimated busy time per VM in ms under Eq. 6, i.e. the sum of
    /// `expected_exec_ms` of every cloudlet bound to that VM. This is the
    /// quantity greedy/load-aware schedulers balance. One-shot convenience
    /// over [`EvalCache::load_vector`]; repeated callers should build the
    /// cache themselves.
    pub fn estimated_load_ms(&self, problem: &SchedulingProblem) -> Vec<f64> {
        EvalCache::new(problem).load_vector(&self.map)
    }

    /// Estimated makespan: the max of [`Assignment::estimated_load_ms`].
    pub fn estimated_makespan_ms(&self, problem: &SchedulingProblem) -> f64 {
        self.estimated_load_ms(problem)
            .into_iter()
            .fold(0.0, f64::max)
    }
}

impl From<Vec<VmId>> for Assignment {
    fn from(map: Vec<VmId>) -> Self {
        Assignment::new(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcloud::characteristics::CostModel;
    use simcloud::cloudlet::CloudletSpec;
    use simcloud::vm::VmSpec;

    fn problem() -> SchedulingProblem {
        SchedulingProblem::single_datacenter(
            vec![VmSpec::homogeneous_default(); 2],
            vec![CloudletSpec::new(1_000.0, 0.0, 0.0, 1); 3],
            CostModel::free(),
        )
    }

    #[test]
    fn accessors() {
        let a = Assignment::new(vec![VmId(0), VmId(1), VmId(0)]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert_eq!(a.vm_for(1), VmId(1));
        assert_eq!(a.as_slice(), &[VmId(0), VmId(1), VmId(0)]);
        assert_eq!(a.counts_per_vm(2), vec![2, 1]);
    }

    #[test]
    fn validation() {
        let p = problem();
        assert!(Assignment::new(vec![VmId(0); 3]).validate(&p).is_ok());
        assert!(Assignment::new(vec![VmId(0); 2]).validate(&p).is_err());
        assert!(Assignment::new(vec![VmId(0), VmId(0), VmId(9)])
            .validate(&p)
            .is_err());
    }

    #[test]
    fn load_estimation() {
        let p = problem();
        // 1000 MI on 1000 MIPS = 1000 ms each.
        let a = Assignment::new(vec![VmId(0), VmId(0), VmId(1)]);
        let load = a.estimated_load_ms(&p);
        assert!((load[0] - 2_000.0).abs() < 1e-9);
        assert!((load[1] - 1_000.0).abs() < 1e-9);
        assert!((a.estimated_makespan_ms(&p) - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn conversion_roundtrip() {
        let raw = vec![VmId(1), VmId(0)];
        let a: Assignment = raw.clone().into();
        assert_eq!(a.into_vec(), raw);
    }
}
