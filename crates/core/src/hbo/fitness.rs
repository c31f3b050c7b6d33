//! HBO's fitness function — Eqs. 1–4 of the paper.
//!
//! Table I glossary (paper symbols → this module):
//!
//! | Symbol      | Meaning                                        | Here |
//! |-------------|------------------------------------------------|------|
//! | `TCLj`      | length of cloudlet *j*                         | `cloudlet.length_mi` |
//! | `dchCPS`    | datacenter cost per storage                    | `cost.per_storage` |
//! | `sizeVMi`   | storage required by VM *i*                     | `vm.size_mb` |
//! | `dchCPR`    | datacenter cost per RAM                        | `cost.per_memory` |
//! | `RAMVMi`    | RAM required by VM *i*                         | `vm.ram_mb` |
//! | `dchCPB`    | datacenter cost per bandwidth                  | `cost.per_bandwidth` |
//! | `BwVMi`     | bandwidth consumed by VM *i*                   | `vm.bw_mbps` |
//!
//! Eq. 1: `DCCost(i,j) = (Size_i + M_i + Bw_i) × TCL_j`, where
//! Eq. 2 `Size_i = dchCPS × sizeVM_i`, Eq. 3 `M_i = dchCPR × RAMVM_i`,
//! Eq. 4 `Bw_i = dchCPB × BwVM_i`. The bees pick the datacenter with the
//! lowest cost (equivalently, the highest fitness = 1/cost).

use simcloud::characteristics::CostModel;
use simcloud::cost::resource_rate;
use simcloud::vm::VmSpec;

/// The cheapest Eq. 1 rate a datacenter can offer across a set of VM
/// specs (used to rank datacenters once per scheduling round, since the
/// `TCL_j` factor scales every datacenter identically).
pub fn best_rate_in_dc<'a>(cost: &CostModel, vms: impl Iterator<Item = &'a VmSpec>) -> f64 {
    vms.map(|vm| resource_rate(cost, vm))
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_rate_scans_vm_specs() {
        let cost = CostModel::new(0.0, 0.001, 0.0, 3.0);
        let small = VmSpec::new(1.0, 100.0, 1.0, 1.0, 1);
        let big = VmSpec::new(1.0, 10_000.0, 1.0, 1.0, 1);
        let rate = best_rate_in_dc(&cost, [&small, &big].into_iter());
        assert!((rate - 0.1).abs() < 1e-12);
        assert_eq!(best_rate_in_dc(&cost, std::iter::empty()), f64::INFINITY);
    }
}
