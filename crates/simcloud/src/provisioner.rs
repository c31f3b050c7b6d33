//! Resource provisioners.
//!
//! A provisioner tracks a single scalar host resource (RAM, bandwidth,
//! storage) and hands slices of it to VMs, mirroring CloudSim's
//! `RamProvisionerSimple` family. Allocation is strict: a request larger
//! than the remaining capacity is refused.

use std::collections::HashMap;

use crate::ids::VmId;

/// Tracks allocation of one scalar resource to VMs.
#[derive(Debug, Clone)]
pub struct Provisioner {
    capacity: f64,
    allocated: f64,
    per_vm: HashMap<VmId, f64>,
    label: &'static str,
}

impl Provisioner {
    /// Creates a provisioner over `capacity` units of `label`.
    pub fn new(label: &'static str, capacity: f64) -> Self {
        assert!(
            capacity.is_finite() && capacity >= 0.0,
            "{label} capacity must be non-negative, got {capacity}"
        );
        Provisioner {
            capacity,
            allocated: 0.0,
            per_vm: HashMap::new(),
            label,
        }
    }

    /// Remaining free amount.
    #[inline]
    pub fn available(&self) -> f64 {
        self.capacity - self.allocated
    }

    /// Attempts to allocate `amount` for `vm`. A VM may hold at most one
    /// allocation per provisioner; re-allocating replaces the old amount
    /// (CloudSim semantics for VM resizing).
    pub fn allocate(&mut self, vm: VmId, amount: f64) -> bool {
        assert!(
            amount.is_finite() && amount >= 0.0,
            "{} allocation must be non-negative, got {amount}",
            self.label
        );
        let current = self.per_vm.get(&vm).copied().unwrap_or(0.0);
        let needed = amount - current;
        if needed > self.available() + 1e-9 {
            return false;
        }
        self.allocated += needed;
        self.per_vm.insert(vm, amount);
        true
    }

    /// Releases whatever `vm` holds. Returns the freed amount.
    pub fn release(&mut self, vm: VmId) -> f64 {
        if let Some(amount) = self.per_vm.remove(&vm) {
            self.allocated -= amount;
            // Guard against floating-point drift.
            if self.allocated < 0.0 {
                self.allocated = 0.0;
            }
            amount
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_within_capacity() {
        let mut p = Provisioner::new("ram", 1024.0);
        assert!(p.allocate(VmId(0), 512.0));
        assert!(p.allocate(VmId(1), 512.0));
        assert_eq!(p.available(), 0.0);
        assert!(!p.allocate(VmId(2), 1.0));
    }

    #[test]
    fn release_returns_amount() {
        let mut p = Provisioner::new("bw", 100.0);
        assert!(p.allocate(VmId(3), 60.0));
        assert_eq!(p.release(VmId(3)), 60.0);
        assert_eq!(p.release(VmId(3)), 0.0, "double release is a no-op");
        assert_eq!(p.available(), 100.0);
    }

    #[test]
    fn reallocation_replaces() {
        let mut p = Provisioner::new("storage", 1000.0);
        assert!(p.allocate(VmId(0), 400.0));
        // Shrink
        assert!(p.allocate(VmId(0), 100.0));
        assert_eq!(p.available(), 900.0);
        // Grow beyond remaining-after-replacement must account for the
        // existing hold: 100 held + 900 free, so 1000 total fits.
        assert!(p.allocate(VmId(0), 1000.0));
        assert!(!p.allocate(VmId(1), 1.0));
    }
}
